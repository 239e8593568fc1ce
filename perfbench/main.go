// Command perfbench is NETDAG's end-to-end and per-layer benchmark. It
// runs one workload per invocation and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (endToEnd below);
// with --trace 1 the run repeats the measurement with spans and a CPU
// profile on and reports the per-layer set (perLayer) plus the tracing
// overhead. The lines before the JSON are a human-readable report:
// provenance, every metric with its unit, the percentiles and sample
// counts behind each timing, and class-boundary checks.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from the tree it sits in. See perfbench/README.md for the
// workloads and what each metric means.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// every one of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer splits the time and work across the program's modules. A
// layer a workload never calls reports 0 and is listed as not exercised
// in the human-readable report.
var perLayer = []metricDef{
	{"spec.decode_ms", "ms"},
	{"spec.build_ms", "ms"},
	{"spec.export_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.solve_share", "share"},
	{"core.explored", "count"},
	{"core.solver_nodes", "count"},
	{"core.front_points", "count"},
	{"cpu.chi", "share"},
	{"cpu.place", "share"},
	{"cpu.stn", "share"},
	{"cpu.malloc", "share"},
	{"cpu.gc", "share"},
	{"runtime.gc_per_op", "count"},
	{"runtime.objects_per_op", "count"},
	{"serve.hit_ratio", "share"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.pre_solve_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.warm_ratio", "share"},
	{"serve.rejected", "count"},
	{"serve.coalesced", "count"},
	{"serve.gen_late_ms", "ms"},
	{"journal.replay_ms", "ms"},
	{"journal.appended", "count"},
	{"session.resolve_ms", "ms"},
	{"session.warm_hits", "count"},
	{"session.event_p50_ms", "ms"},
	{"session.event_tail_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// env is what every workload receives.
type env struct {
	root    string // repository root: the tree being measured
	seed    int64
	seconds int
	trace   bool
	out     io.Writer // human-readable report
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

// outcome is a workload's result: op counts and the metrics of the mode
// it ran in.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

type workload struct {
	name string
	run  func(ctx context.Context, e *env) (outcome, error)
}

var workloads = []workload{
	{"corpus", runCorpus},
	{"pareto", runPareto},
	{"serve", runServe},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: corpus, pareto or serve")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "run length; fixes the operation count (see README.md)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := flag.String("root", ".", "repository root holding the code and corpus to measure")
	flag.Parse()
	if err := run(context.Background(), os.Stdout, *name, *root, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out io.Writer, name, root string, seed int64, seconds int, trace bool) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be positive", seconds)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("no repository at %s: %w", root, err)
	}
	e := &env{root: root, seed: seed, seconds: seconds, trace: trace, out: out}
	e.printf("provenance: commit=%s tree_sha256=%s go=%s GOMAXPROCS=%d nproc=%d workload=%s seed=%d seconds=%d trace=%t",
		commitOf(root), treeHash(root), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		name, seed, seconds, trace)
	o, err := wl.run(ctx, e)
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", name)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := resultOut{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if ok {
			e.printf("metric %-24s %.6g %s", d.name, v, d.unit)
		} else {
			e.printf("metric %-24s n/a on this workload (reported as 0)", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	e.printf("ops: attempted=%d failed=%d correct=%t", o.attempted, o.failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// commitOf reads the checked-out commit from .git without running git,
// or reports that the tree is not a git checkout (treeHash then
// identifies the code).
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if f := strings.Fields(l); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// treeHash fingerprints the measured code and inputs: every .go file,
// go.mod and corpus file under root, by path and content.
func treeHash(root string) string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" ||
			strings.Contains(filepath.ToSlash(path), "examples/corpus/") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// memCounters reads the cumulative allocation and GC counters cheaply
// (runtime/metrics, no stop-the-world), so they can be sampled around
// every timed operation.
type memCounters struct {
	samples []metrics.Sample
}

func newMemCounters() *memCounters {
	return &memCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

// read returns (bytes, objects, gc cycles) allocated so far.
func (m *memCounters) read() (bytes, objects, gcs uint64) {
	metrics.Read(m.samples)
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64(), m.samples[2].Value.Uint64()
}
