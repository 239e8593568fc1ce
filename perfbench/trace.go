package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program, or one benchmark operation enclosing such calls. Spans of
// one operation share Op; Parent is the index of the enclosing span
// (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNS"` // since the tracer's epoch
	End    int64  `json:"endNS"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured runs pay for
// nothing but a nil check. It is used from one goroutine: the serve
// workload records server-side times in its arrivals and turns them
// into spans after the phase.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a span and returns its index (-1 when untraced).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return len(t.spans) - 1
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the part of it covered by child spans
}

// aggregate computes per-name totals and self times. A span's self time
// is its duration minus the union of its children's intervals clipped
// to it.
func (t *tracer) aggregate() []layerTime {
	if t == nil {
		return nil
	}
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, t.spans, children[i])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the child spans cover.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// get returns the aggregate for name (zero if it never ran).
func get(lts []layerTime, name string) layerTime {
	for _, lt := range lts {
		if lt.Name == name {
			return lt
		}
	}
	return layerTime{Name: name}
}

// meanMS is the mean span duration in milliseconds (0 if none).
func (lt layerTime) meanMS() float64 {
	if lt.Count == 0 {
		return 0
	}
	return float64(lt.Total) / float64(lt.Count) / 1e6
}

// printTable writes the per-layer span table.
func printTable(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f %12.4f\n",
			lt.Name, lt.Count, float64(lt.Total)/1e6, float64(lt.Self)/1e6, lt.meanMS())
	}
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
