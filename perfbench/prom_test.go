package main

import (
	"os"
	"strings"
	"testing"
)

// The testdata files are two /metrics captures of one partitiond process:
// right after start, and after two binary bandwidth solves under
// -trace-sample 1, so a bucket line carries an exemplar. Every solver- and
// phase-labelled series first appears in the second capture.

func loadCapture(t *testing.T, name string) (promSnapshot, string) {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := parseProm(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return snap, string(raw)
}

func TestPromDeltaOnCapturedSample(t *testing.T) {
	before, _ := loadCapture(t, "metrics-before.txt")
	after, rawAfter := loadCapture(t, "metrics-after.txt")
	if !strings.Contains(rawAfter, " # {trace_id=") {
		t.Fatal("capture has no exemplar line; the parser is not exercised on one")
	}
	bw := map[string]string{"solver": "bandwidth"}
	if n := before.sum("partitiond_solve_duration_seconds_count", bw); n != 0 {
		t.Fatalf("bandwidth series already present before the solves (%v)", n)
	}
	d := delta(before, after)
	cases := []struct {
		name  string
		match map[string]string
		want  float64
	}{
		// Label sets that first appear mid-run count from zero.
		{"partitiond_solve_duration_seconds_count", bw, 2},
		{"partitiond_solver_solves_total", bw, 2},
		{"partitiond_http_requests_total", map[string]string{"route": "/v1/solve", "code": "200"}, 2},
		{"partitiond_http_requests_total", map[string]string{"route": "/metrics"}, 1},
		// Label sets present in both captures diff normally: one health
		// check before the first capture, none after.
		{"partitiond_http_requests_total", map[string]string{"route": "/healthz"}, 0},
		{"partitiond_cache_misses_total", nil, 2},
		{"partitiond_traces_offered_total", nil, 2},
	}
	for _, c := range cases {
		if got := d.sum(c.name, c.match); got != c.want {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	if got := d.sum("partitiond_solve_duration_seconds_sum", bw); !(got > 0) {
		t.Errorf("solve duration sum delta = %v, want > 0", got)
	}
	for _, ph := range []string{"prime-extract", "temps-dp", "build-partition"} {
		if got := d.sum("partitiond_solve_phase_count_total", map[string]string{"phase": ph}); got != 2 {
			t.Errorf("phase %s count delta = %v, want 2", ph, got)
		}
	}
}

func TestPromParseEdgeCases(t *testing.T) {
	text := `# HELP x_total A counter.
# TYPE x_total counter
x_total 3
y_bucket{le="+Inf",path="a\"b\\c"} 7 # {trace_id="00ff"} 0.5 1700000000.000
z{b="2",a="1"} 1.5e-3 1700000000000
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s["x_total"] != 3 {
		t.Errorf("x_total = %v", s["x_total"])
	}
	if got := s.sum("y_bucket", map[string]string{"path": `a"b\c`}); got != 7 {
		t.Errorf("escaped label value: sum = %v, want 7", got)
	}
	// Label order does not matter: the canonical key sorts them.
	if s[`z{a="1",b="2"}`] != 1.5e-3 {
		t.Errorf("canonical series missing: %v", s)
	}
	two := make(promSnapshot)
	two.add(s)
	two.add(s)
	if two["x_total"] != 6 {
		t.Errorf("add: x_total = %v, want 6", two["x_total"])
	}
	for _, bad := range []string{"{a=\"1\"} 2\n", "m{a=\"1\" 2\n", "m{a=1} 2\n", "m notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", bad)
		}
	}
}
