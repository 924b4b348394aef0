package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// The /metrics scrape-and-diff helper. partitiond exposes Prometheus text
// format 0.0.4, histogram exemplars included; the benchmark reads counters
// and histogram sums before and after a window and works with the deltas.

// series is one parsed sample: the metric name and its labels.
type series struct {
	name   string
	labels map[string]string
}

// promSnapshot maps a canonical series string (name plus labels sorted by
// label name) to its value.
type promSnapshot map[string]float64

// parseProm reads the Prometheus text exposition format. Comment lines are
// skipped, an OpenMetrics exemplar suffix (" # {...} v ts") is dropped, and
// a trailing timestamp is ignored.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := make(promSnapshot)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		s, rest, err := parseSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		if i := strings.Index(rest, " # "); i >= 0 {
			rest = rest[:i]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		snap[s.String()] = v
	}
	return snap, sc.Err()
}

// parseSeries parses `name{l="v",...}` from the front of text and returns
// the remainder.
func parseSeries(text string) (series, string, error) {
	end := strings.IndexAny(text, "{ \t")
	if end < 0 {
		end = len(text)
	}
	if end == 0 {
		return series{}, "", fmt.Errorf("no metric name in %q", text)
	}
	s := series{name: text[:end], labels: map[string]string{}}
	rest := text[end:]
	if rest == "" || rest[0] != '{' {
		return s, rest, nil
	}
	rest = rest[1:]
	for {
		rest = strings.TrimLeft(rest, " ,")
		if rest == "" {
			return series{}, "", fmt.Errorf("unterminated labels in %q", text)
		}
		if rest[0] == '}' {
			return s, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			return series{}, "", fmt.Errorf("bad label in %q", text)
		}
		name := strings.TrimSpace(rest[:eq])
		rest = rest[eq+2:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return series{}, "", fmt.Errorf("unterminated label value in %q", text)
		}
		s.labels[name] = val.String()
	}
}

// String renders the canonical form: labels sorted by name.
func (s series) String() string {
	if len(s.labels) == 0 {
		return s.name
	}
	names := make([]string, 0, len(s.labels))
	for n := range s.labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, s.labels[n])
	}
	b.WriteByte('}')
	return b.String()
}

// add sums another snapshot into s (several nodes into one cluster view).
func (s promSnapshot) add(o promSnapshot) {
	for k, v := range o {
		s[k] += v
	}
}

// delta returns after − before for every series in after. A series absent
// from before — a label set that first appeared during the window — counts
// from zero.
func delta(before, after promSnapshot) promSnapshot {
	d := make(promSnapshot, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds up every series of the named metric whose labels include all of
// match.
func (s promSnapshot) sum(name string, match map[string]string) float64 {
	var total float64
	for k, v := range s {
		ser, _, err := parseSeries(k)
		if err != nil || ser.name != name {
			continue
		}
		ok := true
		for ln, lv := range match {
			if ser.labels[ln] != lv {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// scrape fetches and parses one node's /metrics.
func scrape(c *http.Client, base string) (promSnapshot, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
