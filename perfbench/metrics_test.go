package main

import (
	"math"
	"testing"
	"time"
)

func TestDeliveredOverSpreadsEachPeriod(t *testing.T) {
	t0 := time.Unix(0, 0)
	tr := cpuTrace{
		at: []time.Time{t0, t0.Add(200 * time.Millisecond), t0.Add(400 * time.Millisecond)},
		st: []cpuStat{{busy: 0, steal: 0}, {busy: 40, steal: 0}, {busy: 60, steal: 20}},
	}
	for _, c := range []struct {
		a, b time.Duration
		want float64
	}{
		{10 * time.Millisecond, 50 * time.Millisecond, 1},     // inside the quiet period
		{250 * time.Millisecond, 300 * time.Millisecond, 0.5}, // inside the stolen one
		{100 * time.Millisecond, 300 * time.Millisecond, 30.0 / 40},
		{-time.Second, time.Second, 60.0 / 80}, // clamped to the trace
	} {
		if got := tr.deliveredOver(t0.Add(c.a), t0.Add(c.b)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("deliveredOver(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := tr.total().delivered(); got != 0.75 {
		t.Errorf("total delivered %v, want 0.75", got)
	}
}
