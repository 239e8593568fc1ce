package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/spec"
	"github.com/netdag/netdag/internal/wh"
)

// The corpus workload replays the committed 200-scenario corpus
// (examples/corpus) through the netdag CLI path, one scenario after
// another in whole passes: spec.Decode → spec.Build → core.SolveContext
// (default Workers) → spec.WriteJSON to a discarding writer. It is a
// closed loop with one client; the seed only permutes the order within
// a pass, so every seed does the same work.
const corpusPassesPerSecond = 1.5 // passes per --seconds (about 0.55 s each on a 2-core Xeon)

// corpusHeavy are the χ-dominated multi-rate scenarios that take about
// 80% of a pass; every other scenario is "light". The tail percentile
// is chosen inside scenario-095's samples (the top 0.5% of ops), away
// from the boundary with the next-heaviest scenario.
var corpusHeavy = []string{"scenario-095.json", "scenario-032.json", "scenario-092.json"}

const corpusTailClass = "scenario-095.json"

type manifestEntry struct {
	File     string `json:"file"`
	Status   string `json:"status"`
	Makespan int64  `json:"makespan"`
	Optimal  bool   `json:"optimal"`
}

type corpusSpec struct {
	want manifestEntry
	body []byte
}

// loadManifest reads examples/corpus/MANIFEST.json, keyed by file.
func loadManifest(dir string) (map[string]manifestEntry, error) {
	entries, err := manifestEntries(dir)
	if err != nil {
		return nil, err
	}
	m := make(map[string]manifestEntry, len(entries))
	for _, ent := range entries {
		m[ent.File] = ent
	}
	return m, nil
}

func manifestEntries(dir string) ([]manifestEntry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return nil, err
	}
	var man struct {
		Entries []manifestEntry `json:"entries"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("MANIFEST.json: %w", err)
	}
	if len(man.Entries) == 0 {
		return nil, errors.New("MANIFEST.json lists no scenarios")
	}
	return man.Entries, nil
}

// readSpec decodes one corpus scenario the MANIFEST lists as solved.
func readSpec(root, name string, man map[string]manifestEntry) (*spec.File, error) {
	if man[name].Status != "solved" {
		return nil, fmt.Errorf("%s: MANIFEST status %q, the workload needs a solved scenario", name, man[name].Status)
	}
	body, err := os.ReadFile(filepath.Join(root, "examples", "corpus", name))
	if err != nil {
		return nil, err
	}
	f, err := spec.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return f, nil
}

// loadCorpus is the corpus workload's set-up: read MANIFEST.json and
// every scenario, decode and build each spec. The built problems are
// discarded — every op rebuilds its own, as the CLI does.
func loadCorpus(dir string) ([]corpusSpec, error) {
	entries, err := manifestEntries(dir)
	if err != nil {
		return nil, err
	}
	specs := make([]corpusSpec, len(entries))
	for i, ent := range entries {
		body, err := os.ReadFile(filepath.Join(dir, ent.File))
		if err != nil {
			return nil, err
		}
		f, err := spec.Decode(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ent.File, err)
		}
		if _, err := spec.Build(f); err != nil {
			return nil, fmt.Errorf("%s: %w", ent.File, err)
		}
		specs[i] = corpusSpec{want: ent, body: body}
	}
	return specs, nil
}

// corpusOp is the outcome of one timed operation, checked afterwards.
type corpusOp struct {
	prob  *core.Problem
	sched *core.Schedule
	err   error
}

// checkCorpusOp compares one solve against the MANIFEST entry: solved
// entries must match its makespan and optimal flag, validate, and
// satisfy every constraint; unsat entries must fail with ErrUnsat.
func checkCorpusOp(want manifestEntry, op corpusOp) error {
	switch want.Status {
	case "unsat":
		if !errors.Is(op.err, core.ErrUnsat) {
			return fmt.Errorf("%s: want ErrUnsat, got %v", want.File, op.err)
		}
		return nil
	case "solved":
	default:
		return fmt.Errorf("%s: unknown MANIFEST status %q", want.File, want.Status)
	}
	if op.err != nil {
		return fmt.Errorf("%s: %w", want.File, op.err)
	}
	s := op.sched
	if s.Makespan != want.Makespan || s.Optimal != want.Optimal {
		return fmt.Errorf("%s: makespan %d optimal %t, MANIFEST says %d %t",
			want.File, s.Makespan, s.Optimal, want.Makespan, want.Optimal)
	}
	if err := checkSchedule(op.prob, s); err != nil {
		return fmt.Errorf("%s: %w", want.File, err)
	}
	return nil
}

// checkSchedule audits a schedule against its problem: structural
// validity and every soft / weakly-hard task constraint.
func checkSchedule(p *core.Problem, s *core.Schedule) error {
	if err := s.Validate(p.App); err != nil {
		return err
	}
	for id, target := range p.SoftCons {
		got, err := core.SatisfiedSoft(p, s, id)
		if err != nil {
			return err
		}
		if got < target-1e-9 {
			return fmt.Errorf("task %d guarantees %v < %v", id, got, target)
		}
	}
	for id, target := range p.WHCons {
		guar, ok, err := core.SatisfiedWH(p, s, id)
		if err != nil {
			return err
		}
		if ok && !wh.SufficientlyImpliesMiss(guar, target) {
			return fmt.Errorf("task %d guarantee %v misses %v", id, guar, target)
		}
	}
	return nil
}

func runCorpus(ctx context.Context, e *env) (outcome, error) {
	dir := filepath.Join(e.root, "examples", "corpus")
	// Set-up is loaded from scratch once before the run and once more
	// after every measured pass, so its median samples the machine over
	// the whole run rather than over half a second at its start.
	var setups []float64
	load := func() ([]corpusSpec, error) {
		t0 := time.Now()
		s, err := loadCorpus(dir)
		setups = append(setups, time.Since(t0).Seconds())
		return s, err
	}
	specs, err := load()
	if err != nil {
		return outcome{}, err
	}
	passes := max(2, int(float64(e.seconds)*corpusPassesPerSecond+0.5))
	e.printf("corpus: %d scenarios, %d measured passes + 1 warm-up, closed loop, 1 client", len(specs), passes)

	rng := rand.New(rand.NewSource(e.seed))
	// The warm-up pass fills caches and grows the heap; it is excluded.
	m, err := corpusPhase(ctx, e, specs, rng, 1, nil, nil)
	if err != nil {
		return outcome{}, err
	}
	if m.failed > 0 {
		e.printf("warm-up: %d failed ops (%s)", m.failed, m.firstErr)
	}
	m, err = corpusPhase(ctx, e, specs, rng, passes, nil, func() error {
		_, err := load()
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	o := outcome{attempted: m.ops, failed: m.failed, metrics: m.endToEnd()}
	o.metrics["setup_s"] = median(setups)
	e.printf("setup: median of %d from-scratch loads (read + decode + build of %d specs + MANIFEST): %.4f s", len(setups), len(specs), median(setups))
	m.report(e)
	if !e.trace {
		return o, nil
	}

	tr := newTracer()
	var tm *measure
	shares, err := profiled(traceFile(e, "corpus", "pprof"), func() (err error) {
		tm, err = corpusPhase(ctx, e, specs, rng, passes, tr, nil)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	e.printf("traced phase:")
	tm.report(e)
	lts := tr.aggregate()
	printTable(e.out, lts)
	layer := tm.layer(lts, passes)
	layer["trace.overhead_pct"] = overheadPct(m.opSeconds, tm.opSeconds)
	addCPU(e, layer, shares)
	e.printf("split check (corpus): χ should be the largest core share: cpu.chi=%.3f cpu.place=%.3f -> %s",
		layer["cpu.chi"], layer["cpu.place"], verdict(layer["cpu.chi"] > layer["cpu.place"]))
	if err := tr.write(traceFile(e, "corpus", "jsonl")); err != nil {
		return outcome{}, err
	}
	return outcome{attempted: m.ops + tm.ops, failed: m.failed + tm.failed, metrics: layer}, nil
}

// measure accumulates one phase of a closed-loop workload: corpus
// passes or pareto rounds.
type measure struct {
	ops, failed       int
	firstErr          error
	latMS             []float64
	labels            []string
	opSeconds         float64
	roundOps          int       // ops per round: a corpus pass, or one sweep of every instance
	roundSeconds      []float64 // timed seconds of each completed round
	allocBytes, objs  uint64
	gcs               uint64
	explored, solverN int64
}

// corpusPhase runs whole passes over the corpus, calling afterPass, when
// it is not nil, after each one, outside the timed ops.
func corpusPhase(ctx context.Context, e *env, specs []corpusSpec, rng *rand.Rand, passes int, tr *tracer, afterPass func() error) (*measure, error) {
	m := &measure{roundOps: len(specs)}
	mc := newMemCounters()
	_, _, gc0 := mc.read()
	for pass := 0; pass < passes; pass++ {
		passStart := m.opSeconds
		for _, i := range rng.Perm(len(specs)) {
			cs := specs[i]
			b0, o0, _ := mc.read()
			t0 := time.Now()
			var op corpusOp
			f, err := spec.Decode(bytes.NewReader(cs.body))
			t1 := time.Now()
			var t2, t3 time.Time
			if err == nil {
				op.prob, err = spec.Build(f)
				t2 = time.Now()
				if err == nil {
					op.sched, err = core.SolveContext(ctx, op.prob)
					t3 = time.Now()
					if err == nil {
						err = spec.WriteJSON(io.Discard, op.prob, op.sched)
					}
				}
			}
			t4 := time.Now()
			b1, o1, _ := mc.read()
			op.err = err

			d := t4.Sub(t0)
			m.ops++
			m.opSeconds += d.Seconds()
			m.latMS = append(m.latMS, float64(d)/1e6)
			m.labels = append(m.labels, corpusClass(cs.want.File))
			m.allocBytes += b1 - b0
			m.objs += o1 - o0
			if tr != nil {
				root := tr.add("op", m.ops, -1, t0, t4)
				tr.add("spec.decode", m.ops, root, t0, t1)
				if !t2.IsZero() {
					tr.add("spec.build", m.ops, root, t1, t2)
				}
				if !t3.IsZero() {
					tr.add("core.solve", m.ops, root, t2, t3)
					tr.add("spec.export", m.ops, root, t3, t4)
				}
			}
			if op.sched != nil {
				m.explored += int64(op.sched.Explored)
				m.solverN += int64(op.sched.SolverNodes)
			}
			if err := checkCorpusOp(cs.want, op); err != nil {
				m.failed++
				if m.firstErr == nil {
					m.firstErr = err
				}
			}
		}
		m.roundSeconds = append(m.roundSeconds, m.opSeconds-passStart)
		if afterPass != nil {
			if err := afterPass(); err != nil {
				return nil, err
			}
		}
	}
	_, _, gc1 := mc.read()
	m.gcs = gc1 - gc0
	return m, nil
}

func corpusClass(file string) string {
	for _, h := range corpusHeavy {
		if file == h {
			return file
		}
	}
	return "light"
}

func (m *measure) endToEnd() map[string]float64 {
	l := summarize(m.latMS)
	return map[string]float64{
		"ops_per_s":       m.opsPerSecond(),
		"p50_ms":          l.p50,
		"tail_ms":         l.tail,
		"ok_ratio":        float64(m.ops-m.failed) / float64(m.ops),
		"alloc_mb_per_op": float64(m.allocBytes) / 1e6 / float64(m.ops),
	}
}

// opsPerSecond is the throughput of the median round, so a transient
// stall of the machine moves it no more than it moves one round.
func (m *measure) opsPerSecond() float64 {
	return float64(m.roundOps) / median(m.roundSeconds)
}

func (m *measure) report(e *env) {
	l := summarize(m.latMS)
	e.printf("latency: %s", l)
	e.printf("throughput: %d ops in %.3f s of timed work; median round of %d ops = %.3f ops/s (%d rounds)",
		m.ops, m.opSeconds, m.roundOps, m.opsPerSecond(), len(m.roundSeconds))
	e.printf("%s", checkClass("p50_ms", 50, m.latMS, m.labels, "light"))
	e.printf("%s", checkClass("tail_ms", l.tailPct, m.latMS, m.labels, corpusTailClass))
	if m.failed > 0 {
		e.printf("FAILED ops: %d, first: %v", m.failed, m.firstErr)
	}
}

// layer derives the corpus per-layer metrics from a traced phase.
func (m *measure) layer(lts []layerTime, passes int) map[string]float64 {
	op := get(lts, "op")
	solve := get(lts, "core.solve")
	return map[string]float64{
		"spec.decode_ms":         get(lts, "spec.decode").meanMS(),
		"spec.build_ms":          get(lts, "spec.build").meanMS(),
		"spec.export_ms":         get(lts, "spec.export").meanMS(),
		"core.solve_ms":          solve.meanMS(),
		"core.solve_share":       float64(solve.Total) / float64(op.Total),
		"core.explored":          float64(m.explored) / float64(passes),
		"core.solver_nodes":      float64(m.solverN) / float64(passes),
		"runtime.gc_per_op":      float64(m.gcs) / float64(m.ops),
		"runtime.objects_per_op": float64(m.objs) / float64(m.ops),
	}
}

func overheadPct(untraced, traced float64) float64 { return 100 * (traced - untraced) / untraced }

// addCPU merges the CPU-profile shares into the per-layer metrics,
// printing missing patterns loudly (they are reported as 0 only because
// the result format needs a number).
func addCPU(e *env, layer map[string]float64, sh cpuShares) {
	e.printf("cpu profile: %d samples", sh.samples)
	for _, c := range cpuPatterns {
		if sh.missing[c.metric] {
			e.printf("%s: MISSING — patterns %q matched no sampled function", c.metric, c.patterns)
			layer[c.metric] = 0
			continue
		}
		layer[c.metric] = sh.share[c.metric]
	}
}

func verdict(ok bool) string {
	if ok {
		return "matches the ROADMAP measurement"
	}
	return "DIFFERS from the ROADMAP measurement"
}

// traceFile is where a traced run writes its spans (ext "jsonl") or its
// CPU profile (ext "pprof").
func traceFile(e *env, name, ext string) string {
	return filepath.Join(e.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.%s", name, e.seed, ext))
}
