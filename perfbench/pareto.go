package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

// The pareto workload runs core.ParetoFrontContext sweeps (the
// energy/latency front, ObjectivePareto) on the staggered-release
// four-chain shape of core's BenchmarkParetoEnergyBound, built through
// the public dag/core API. Each sweep rebuilds a solver.Problem and an
// STN per round assignment, so placement, STN and allocator work
// dominate and χ is small — the opposite of the corpus mix. It is a
// closed loop with one client.
const (
	paretoInstances       = 6
	paretoRoundsPerSecond = 3 // rounds (one sweep of every instance) per --seconds; a sweep takes about 50 ms on a 2-core Xeon
	paretoSetupRepeats    = 5
)

// paretoInstance is one seeded variant: WCETs and release offsets are
// scaled by factors in [0.8, 1.2].
type paretoInstance struct {
	wcet    [4][3]int64 // chain × (sense, ctrl, act)
	release [4]int64
}

func newParetoInstance(rng *rand.Rand) paretoInstance {
	scale := func(v int64) int64 { return v * int64(80+rng.Intn(41)) / 100 }
	act := []int64{14000, 9000, 4000, 300}
	var in paretoInstance
	for i := 0; i < 4; i++ {
		in.wcet[i] = [3]int64{scale(400), scale(700), scale(act[i])}
		in.release[i] = scale(int64(i) * 9000)
	}
	return in
}

// problem builds a fresh core.Problem for the instance.
func (in paretoInstance) problem() (*core.Problem, error) {
	g := dag.New()
	cons := make(map[dag.TaskID]wh.MissConstraint)
	releases := make(map[dag.TaskID]int64)
	for i := 0; i < 4; i++ {
		d := fmt.Sprint(i)
		sense, err := g.AddTask("sense"+d, "ns"+d, in.wcet[i][0])
		if err != nil {
			return nil, err
		}
		ctrl, err := g.AddTask("ctrl"+d, "nc"+d, in.wcet[i][1])
		if err != nil {
			return nil, err
		}
		act, err := g.AddTask("act"+d, "na"+d, in.wcet[i][2])
		if err != nil {
			return nil, err
		}
		if err := g.Connect(sense, ctrl, 8); err != nil {
			return nil, err
		}
		if err := g.Connect(ctrl, act, 4); err != nil {
			return nil, err
		}
		cons[act] = wh.MissConstraint{Misses: 26, Window: 40}
		if in.release[i] > 0 {
			releases[sense] = in.release[i]
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 2,
		Mode: core.WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
		ReleaseTimes: releases, MaxRounds: 4, Objective: core.ObjectivePareto,
	}, nil
}

type frontKey struct{ makespan, energy int64 }

// checkFront audits one sweep: strictly ascending makespan, strictly
// descending energy, every point valid and satisfying its constraints,
// and the same front the instance gave at set-up.
func checkFront(p *core.Problem, front []core.ParetoPoint, want []frontKey) error {
	if len(front) != len(want) {
		return fmt.Errorf("front has %d points, want %d", len(front), len(want))
	}
	for i, pt := range front {
		if i > 0 && (pt.Makespan <= front[i-1].Makespan || pt.EnergyPC >= front[i-1].EnergyPC) {
			return fmt.Errorf("point %d (%d, %d) does not trade off against point %d (%d, %d)",
				i, pt.Makespan, pt.EnergyPC, i-1, front[i-1].Makespan, front[i-1].EnergyPC)
		}
		if (frontKey{pt.Makespan, pt.EnergyPC}) != want[i] {
			return fmt.Errorf("point %d is (%d, %d), set-up gave (%d, %d)", i, pt.Makespan, pt.EnergyPC, want[i].makespan, want[i].energy)
		}
		if pt.Sched == nil || pt.Sched.Makespan != pt.Makespan || pt.Sched.EnergyPC != pt.EnergyPC {
			return fmt.Errorf("point %d: schedule disagrees with the point", i)
		}
		if err := checkSchedule(p, pt.Sched); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

// paretoSetup builds the seeded instances and sweeps each once, cold:
// the fronts it finds are the reference every later sweep must repeat.
func paretoSetup(ctx context.Context, seed int64) ([]paretoInstance, [][]frontKey, error) {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]paretoInstance, paretoInstances)
	refs := make([][]frontKey, paretoInstances)
	for i := range insts {
		insts[i] = newParetoInstance(rng)
		p, err := insts[i].problem()
		if err != nil {
			return nil, nil, err
		}
		front, err := core.ParetoFrontContext(ctx, p)
		if err != nil {
			return nil, nil, fmt.Errorf("instance %d: %w", i, err)
		}
		if len(front) < 2 {
			return nil, nil, fmt.Errorf("instance %d: front has %d point(s); the workload needs a real tradeoff", i, len(front))
		}
		for _, pt := range front {
			refs[i] = append(refs[i], frontKey{pt.Makespan, pt.EnergyPC})
		}
	}
	return insts, refs, nil
}

func runPareto(ctx context.Context, e *env) (outcome, error) {
	var insts []paretoInstance
	var refs [][]frontKey
	var setups []float64
	for r := 0; r < paretoSetupRepeats; r++ {
		t0 := time.Now()
		var err error
		insts, refs, err = paretoSetup(ctx, e.seed)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sweeps := e.seconds * paretoRoundsPerSecond * paretoInstances
	e.printf("pareto: %d instances (fronts of %v points), %d measured sweeps + %d warm-up, closed loop, 1 client",
		len(insts), frontSizes(refs), sweeps, len(insts))
	e.printf("setup: median of %d repeats (build %d instances + one cold reference sweep each): %.4f s",
		len(setups), len(insts), median(setups))

	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	if _, err := paretoPhase(ctx, insts, refs, rng, len(insts), nil); err != nil {
		return outcome{}, err
	}
	m, err := paretoPhase(ctx, insts, refs, rng, sweeps, nil)
	if err != nil {
		return outcome{}, err
	}
	m.report(e)
	o := outcome{attempted: m.ops, failed: m.failed, metrics: m.endToEnd()}
	o.metrics["setup_s"] = median(setups)
	if !e.trace {
		return o, nil
	}

	tr := newTracer()
	var tm *paretoMeasure
	shares, err := profiled(traceFile(e, "pareto", "pprof"), func() (err error) {
		tm, err = paretoPhase(ctx, insts, refs, rng, sweeps, tr)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	e.printf("traced phase:")
	tm.report(e)
	lts := tr.aggregate()
	printTable(e.out, lts)
	op := get(lts, "op")
	solve := get(lts, "core.pareto")
	layer := map[string]float64{
		"core.solve_ms":          solve.meanMS(),
		"core.solve_share":       float64(solve.Total) / float64(op.Total),
		"core.explored":          float64(tm.explored) / float64(tm.ops),
		"core.solver_nodes":      float64(tm.solverN) / float64(tm.ops),
		"core.front_points":      float64(tm.points) / float64(tm.ops),
		"runtime.gc_per_op":      float64(tm.gcs) / float64(tm.ops),
		"runtime.objects_per_op": float64(tm.objs) / float64(tm.ops),
		"trace.overhead_pct":     overheadPct(m.opSeconds, tm.opSeconds),
	}
	addCPU(e, layer, shares)
	place := max(layer["cpu.place"], layer["cpu.malloc"])
	e.printf("split check (pareto): allocation/placement should outweigh χ: cpu.malloc=%.3f cpu.place=%.3f cpu.chi=%.3f -> %s",
		layer["cpu.malloc"], layer["cpu.place"], layer["cpu.chi"], verdict(place > layer["cpu.chi"]))
	if err := tr.write(traceFile(e, "pareto", "jsonl")); err != nil {
		return outcome{}, err
	}
	return outcome{attempted: m.ops + tm.ops, failed: m.failed + tm.failed, metrics: layer}, nil
}

func frontSizes(refs [][]frontKey) []int {
	var n []int
	for _, r := range refs {
		n = append(n, len(r))
	}
	return n
}

type paretoMeasure struct {
	measure
	points int64 // front points over all sweeps
}

// paretoPhase runs sweeps in seeded round-robin order: every instance
// once per round, in a fresh permutation each round.
func paretoPhase(ctx context.Context, insts []paretoInstance, refs [][]frontKey, rng *rand.Rand, sweeps int, tr *tracer) (*paretoMeasure, error) {
	m := &paretoMeasure{}
	m.roundOps = len(insts)
	mc := newMemCounters()
	_, _, gc0 := mc.read()
	var order []int
	roundStart := 0.0
	for m.ops < sweeps {
		if len(order) == 0 {
			order = rng.Perm(len(insts))
			roundStart = m.opSeconds
		}
		i := order[0]
		order = order[1:]
		p, err := insts[i].problem() // untimed: a fresh problem per sweep
		if err != nil {
			return nil, err
		}
		b0, o0, _ := mc.read()
		t0 := time.Now()
		front, err := core.ParetoFrontContext(ctx, p)
		t1 := time.Now()
		b1, o1, _ := mc.read()

		d := t1.Sub(t0)
		m.ops++
		m.opSeconds += d.Seconds()
		m.latMS = append(m.latMS, float64(d)/1e6)
		m.labels = append(m.labels, "sweep") // instances differ only in noise: one class
		m.allocBytes += b1 - b0
		m.objs += o1 - o0
		if tr != nil {
			root := tr.add("op", m.ops, -1, t0, t1)
			tr.add("core.pareto", m.ops, root, t0, t1)
		}
		m.points += int64(len(front))
		for _, pt := range front {
			if pt.Sched != nil {
				m.explored += int64(pt.Sched.Explored)
				m.solverN += int64(pt.Sched.SolverNodes)
			}
		}
		if err == nil {
			err = checkFront(p, front, refs[i])
		}
		if err != nil {
			m.failed++
			if m.firstErr == nil {
				m.firstErr = fmt.Errorf("instance %d: %w", i, err)
			}
		}
		if len(order) == 0 {
			m.roundSeconds = append(m.roundSeconds, m.opSeconds-roundStart)
		}
	}
	_, _, gc1 := mc.read()
	m.gcs = gc1 - gc0
	return m, nil
}

func (m *paretoMeasure) report(e *env) {
	l := summarize(m.latMS)
	e.printf("latency: %s", l)
	e.printf("throughput: %d sweeps in %.3f s of timed work; median round of %d sweeps = %.3f ops/s (%d rounds)",
		m.ops, m.opSeconds, m.roundOps, m.opsPerSecond(), len(m.roundSeconds))
	e.printf("allocation: %.3f MB and %.0f objects per sweep", float64(m.allocBytes)/1e6/float64(m.ops), float64(m.objs)/float64(m.ops))
	e.printf("%s", checkClass("p50_ms", 50, m.latMS, m.labels, ""))
	e.printf("%s", checkClass("tail_ms", l.tailPct, m.latMS, m.labels, ""))
	if m.failed > 0 {
		e.printf("FAILED ops: %d, first: %v", m.failed, m.firstErr)
	}
}
