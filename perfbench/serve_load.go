package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/spec"
)

// arrivalHeader carries the arrival's index so the traced wrappers can
// attribute server-side time to it.
const arrivalHeader = "X-Perfbench-Arrival"

// addVariant appends one never-seen weight-mutated variant of base bi:
// every WCET scaled by a factor in [0.7, 1.3]. Corpus specs carry no
// deadlines, so WCETs move the makespan but never feasibility.
func (b *serveBench) addVariant(bi int, rng *rand.Rand) error {
	base := b.bases[bi]
	for {
		v := *base
		v.Tasks = make([]spec.TaskSpec, len(base.Tasks))
		for j, t := range base.Tasks {
			t.WCET = max(1, t.WCET*int64(70+rng.Intn(61))/100)
			v.Tasks[j] = t
		}
		fp, err := spec.Fingerprint(&v)
		if err != nil {
			return err
		}
		if b.seen[fp] {
			continue
		}
		b.seen[fp] = true
		body, err := json.Marshal(&v)
		if err != nil {
			return err
		}
		p, err := spec.Build(&v)
		if err != nil {
			return err
		}
		b.variants = append(b.variants, &variant{file: &v, body: body, fp: fp, key: problemKey(p)})
		return nil
	}
}

// problemKey identifies a built problem by its task weights, so the
// traced SolveFn wrapper can tell which arrival a solve belongs to.
func problemKey(p *core.Problem) string {
	h := sha256.New()
	for _, t := range p.App.Tasks() {
		fmt.Fprintf(h, "%s=%d;", t.Name, t.WCET)
	}
	fmt.Fprintf(h, "D%d", p.Diameter)
	return string(h.Sum(nil))
}

// openSession creates a live session on a corpus scenario and solves,
// from scratch, the four states its reversible events move between.
func (b *serveBench) openSession(ctx context.Context, name string, man map[string]manifestEntry) error {
	f, err := readSpec(b.e.root, name, man)
	if err != nil {
		return err
	}
	if f.MinNTX > 1 {
		return fmt.Errorf("session %s: minNTX %d; the link events assume the unconstrained floor", name, f.MinNTX)
	}
	ls := liveSession{diameter: f.Diameter}
	for d := 0; d < 2; d++ {
		for n := 0; n < 2; n++ {
			g := *f
			g.Diameter = f.Diameter + d
			g.MinNTX = 1 // the unconstrained floor, as 0 is
			if n == 1 {
				g.MinNTX = serveLinkFloor
			}
			p, err := spec.Build(&g)
			if err != nil {
				return err
			}
			s, err := core.SolveContext(ctx, p)
			if err != nil {
				return fmt.Errorf("session %s at diameter %d, floor %d: %w", name, g.Diameter, g.MinNTX, err)
			}
			ls.makespans[d][n] = s.Makespan
		}
	}
	// Each event must move the optimum, or its check would pass on a
	// session that ignored it.
	if ls.makespans[1][0] == ls.makespans[0][0] || ls.makespans[0][1] == ls.makespans[0][0] {
		return fmt.Errorf("session %s: the events do not change the optimum (%v), so their checks would test nothing", name, ls.makespans)
	}
	body, err := json.Marshal(map[string]any{"spec": f})
	if err != nil {
		return err
	}
	resp, err := b.clients[0].Post(b.url+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var created struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("session %s: status %d: %s", name, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		return fmt.Errorf("session %s: %w", name, err)
	}
	ls.id = created.ID
	b.sessions = append(b.sessions, ls)
	return nil
}

// nextEvent cycles each session through diameter up, diameter down,
// link floor up, link floor down, so the work per event stays constant.
// It returns the session, the event and the makespan of the state the
// event leaves the session in.
func (b *serveBench) nextEvent() (int, session.Event, int64) {
	si := b.eventSeq % len(b.sessions)
	step := (b.eventSeq / len(b.sessions)) % 4
	b.eventSeq++
	ls := b.sessions[si]
	switch step {
	case 0:
		return si, session.Event{Kind: session.KindDiameter, Diameter: ls.diameter + 1}, ls.makespans[1][0]
	case 1:
		return si, session.Event{Kind: session.KindDiameter, Diameter: ls.diameter}, ls.makespans[0][0]
	case 2:
		return si, session.Event{Kind: session.KindLink, MinNTX: serveLinkFloor}, ls.makespans[0][1]
	default:
		return si, session.Event{Kind: session.KindLink, MinNTX: 1}, ls.makespans[0][0]
	}
}

// servePhase is one open-loop run of arrivals and its outcome.
type servePhase struct {
	name     string
	arr      []*arrival
	byKey    map[string]int // problemKey -> arrival (fresh solves)
	failed   int
	firstErr error
	// per-miss solve counts, read from the checked bodies
	explored, solverN, missBodies int64
	// allocation by client and server while the arrivals were sent
	allocBytes, allocObjects, gcs uint64
}

func (ph *servePhase) ops() int { return len(ph.arr) }

// plan draws the phase's arrivals from a stream seeded by the workload
// seed and the phase name. The class counts are exact — a fixed share
// of events and of fresh solves — so seeds change the order and the
// variants, not the mix.
func (b *serveBench) plan(name string, n int) (*servePhase, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(b.e.seed ^ int64(h.Sum64())))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(b.hot-1))
	events := int(math.Round(float64(n) * serveEventShare))
	fresh := int(math.Round(float64(n-events) * serveFreshShare))
	kinds := make([]arrivalKind, n)
	for i := range kinds {
		switch {
		case i < events:
			kinds[i] = sessionEvent
		case i < events+fresh:
			kinds[i] = freshSolve
		default:
			kinds[i] = hotSolve
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	ph := &servePhase{name: name, arr: make([]*arrival, n), byKey: map[string]int{}}
	lastEvent := map[int]*arrival{}
	for i, kind := range kinds {
		a := &arrival{kind: kind}
		switch kind {
		case sessionEvent:
			var ev session.Event
			a.sess, ev, a.want = b.nextEvent()
			body, err := json.Marshal(ev)
			if err != nil {
				return nil, err
			}
			a.event, a.body = ev, body
			a.after, a.done = lastEvent[a.sess], make(chan struct{})
			lastEvent[a.sess] = a
		case freshSolve:
			if err := b.addVariant(serveFreshBase, b.freshRng); err != nil {
				return nil, err
			}
			a.variant = len(b.variants) - 1
			a.body = b.variants[a.variant].body
			ph.byKey[b.variants[a.variant].key] = i
		default:
			a.variant = int(zipf.Uint64())
			a.body = b.variants[a.variant].body
		}
		ph.arr[i] = a
	}
	return ph, nil
}

// runPhase plans n arrivals, sends them at the given rate and checks
// every response afterwards.
func (b *serveBench) runPhase(ctx context.Context, name string, n int, rate float64) (*servePhase, error) {
	ph, err := b.plan(name, n)
	if err != nil {
		return nil, err
	}
	b.drive(ctx, ph, rate)
	b.checkPhase(ph)
	return ph, nil
}

// drive sends the phase's arrivals at the given rate over the client
// connections, and records what the client and the server allocated
// meanwhile: planning and checking stay outside the counters.
func (b *serveBench) drive(ctx context.Context, ph *servePhase, rate float64) {
	mc := newMemCounters()
	b0, o0, g0 := mc.read()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range b.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ph.arr) {
					return
				}
				a := ph.arr[i]
				a.due = start.Add(time.Duration(i) * interval)
				waitUntil(a.due)
				if a.after != nil {
					<-a.after.done
				}
				b.send(ctx, cl, i, a)
				if a.done != nil {
					close(a.done)
				}
			}
		}(cl)
	}
	wg.Wait()
	b1, o1, g1 := mc.read()
	ph.allocBytes, ph.allocObjects, ph.gcs = b1-b0, o1-o0, g1-g0
}

// checkPhase checks every response of the phase and counts failures.
func (b *serveBench) checkPhase(ph *servePhase) {
	for _, a := range ph.arr {
		if err := b.check(ph, a); err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = err
			}
		}
		a.respBody = nil
	}
}

func (b *serveBench) send(ctx context.Context, cl *http.Client, i int, a *arrival) {
	path := "/v1/solve"
	if a.kind == sessionEvent {
		path = "/v1/session/" + b.sessions[a.sess].id + "/events"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(a.body))
	if err != nil {
		a.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(arrivalHeader, strconv.Itoa(i))
	a.sent = time.Now()
	resp, err := cl.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	a.end = time.Now()
	if err != nil {
		a.err = err
		return
	}
	a.status = resp.StatusCode
	a.cache = resp.Header.Get("X-Netdag-Cache")
	a.warm = resp.Header.Get("X-Netdag-Warm") != ""
	a.fingerprint = resp.Header.Get("X-Netdag-Spec")
	a.bodyHash = sha256.Sum256(body)
	// Hot bodies are checked by hash against the journal's; only the
	// others are kept for a full check, which bounds memory at high rates.
	if a.kind != hotSolve || a.status != http.StatusOK {
		a.respBody = body
	}
}

// check verifies one response. Solve bodies must round-trip through
// spec.Import and validate, and every body for one fingerprint must be
// byte-identical across the run; events must commit with the makespan a
// from-scratch solve of the resulting state gives.
func (b *serveBench) check(ph *servePhase, a *arrival) error {
	if a.err != nil {
		return a.err
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", a.status, a.respBody)
	}
	if a.kind == sessionEvent {
		return b.checkEvent(a)
	}
	v := b.variants[a.variant]
	if a.fingerprint != v.fp {
		return fmt.Errorf("fingerprint %q, want %q", a.fingerprint, v.fp)
	}
	prev, seen := b.bodies[v.fp]
	if seen {
		if prev != a.bodyHash {
			return fmt.Errorf("variant %d: body differs from an earlier body for the same fingerprint", a.variant)
		}
		return nil
	}
	s, err := importBody(v, a.respBody)
	if err != nil {
		return fmt.Errorf("variant %d: %w", a.variant, err)
	}
	ph.explored += int64(s.Explored)
	ph.solverN += int64(s.SolverNodes)
	ph.missBodies++
	b.bodies[v.fp] = a.bodyHash
	return nil
}

// importBody re-imports a served schedule against a fresh build of its
// spec and audits it.
func importBody(v *variant, body []byte) (*core.Schedule, error) {
	p, err := spec.Build(v.file)
	if err != nil {
		return nil, err
	}
	s, err := spec.Import(p, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if !s.Optimal {
		return nil, fmt.Errorf("served schedule is not proven optimal")
	}
	return s, checkSchedule(p, s)
}

func (b *serveBench) checkEvent(a *arrival) error {
	var ent session.Entry
	if err := json.Unmarshal(a.respBody, &ent); err != nil {
		return err
	}
	if ent.Outcome != session.OutcomeApplied || ent.State != session.StateActive {
		return fmt.Errorf("event %+v: outcome %s state %s (%s)", a.event, ent.Outcome, ent.State, ent.Error)
	}
	if ent.Makespan != a.want {
		return fmt.Errorf("event %+v: makespan %d, a from-scratch solve of the resulting state gives %d", a.event, ent.Makespan, a.want)
	}
	return nil
}

// Phase summaries. Latencies count from the due time.

func (a *arrival) latMS() float64  { return float64(a.end.Sub(a.due)) / 1e6 }
func (a *arrival) lateMS() float64 { return float64(a.sent.Sub(a.due)) / 1e6 }

func (ph *servePhase) solves() []*arrival {
	var out []*arrival
	for _, a := range ph.arr {
		if a.kind != sessionEvent && a.err == nil {
			out = append(out, a)
		}
	}
	return out
}

func (ph *servePhase) solveMS() []float64 {
	var ms []float64
	for _, a := range ph.solves() {
		ms = append(ms, a.latMS())
	}
	return ms
}

func (ph *servePhase) eventMS() []float64 {
	var ms []float64
	for _, a := range ph.arr {
		if a.kind == sessionEvent && a.err == nil {
			ms = append(ms, a.latMS())
		}
	}
	return ms
}

func (ph *servePhase) classLabels() []string {
	var l []string
	for _, a := range ph.solves() {
		l = append(l, a.cache)
	}
	return l
}

func (ph *servePhase) lateness() latency {
	var ms []float64
	for _, a := range ph.arr {
		if a.err == nil {
			ms = append(ms, a.lateMS())
		}
	}
	return summarize(ms)
}

// backlogMS is the median send lateness over the last tenth of the
// arrivals: it grows without bound once the arrival rate exceeds what
// the server and the client connections can absorb.
func (ph *servePhase) backlogMS() float64 {
	var ms []float64
	for _, a := range ph.arr[len(ph.arr)*9/10:] {
		if a.err == nil {
			ms = append(ms, a.lateMS())
		}
	}
	if len(ms) == 0 {
		return math.Inf(1)
	}
	return median(ms)
}

func (ph *servePhase) count(class string) int {
	n := 0
	for _, a := range ph.solves() {
		if a.cache == class {
			n++
		}
	}
	return n
}

// report prints the phase summary and returns the windowed p50 and
// tail.
func (ph *servePhase) report(e *env) (p50, tail float64) {
	p50, tail, tailPct, wins := ph.windowed()
	for w, l := range wins {
		e.printf("%s window %d: %s", ph.name, w, l)
	}
	el := summarize(ph.eventMS())
	e.printf("%s solves: %s", ph.name, summarize(ph.solveMS()))
	e.printf("%s solves, median of %d windows: p50=%.4f ms p%g=%.4f ms", ph.name, len(wins), p50, tailPct, tail)
	e.printf("%s classes: hit=%d miss=%d coalesced=%d", ph.name, ph.count("hit"), ph.count("miss"), ph.count("coalesced"))
	e.printf("%s", checkClass("p50_ms", 50, ph.solveMS(), ph.classLabels(), "hit"))
	e.printf("%s", checkClass("tail_ms", tailPct, ph.solveMS(), ph.classLabels(), "miss"))
	e.printf("%s session events: %s (event_p50_ms=%.4f event_tail_ms=%.4f)", ph.name, el, el.p50, el.tail)
	e.printf("%s generator lateness: %s", ph.name, ph.lateness())
	if ph.failed > 0 {
		e.printf("FAILED ops: %d, first: %v", ph.failed, ph.firstErr)
	}
	return p50, tail
}

// score is what the rate search holds against serveLimitMS: the
// phase's tail_ms, or its backlog when that is larger, or +Inf when an
// op failed. A rate meets the limit when its score is within it.
func (ph *servePhase) score() (float64, string) {
	_, tail, tailPct, wins := ph.windowed()
	backlog := ph.backlogMS()
	score := math.Max(tail, backlog)
	if ph.failed > 0 {
		score = math.Inf(1)
	}
	return score, fmt.Sprintf("tail_ms (p%g, median of %d windows)=%.3f ms, backlog %.3f ms, failed %d -> meets the limit: %t",
		tailPct, len(wins), tail, backlog, ph.failed, score <= serveLimitMS)
}

// windowed splits the phase into consecutive windows of about
// serveWindowArrivals arrivals and returns the median over windows of
// the solve p50 and tail, so a stall of the machine in one window does
// not move them, the tail percentile the windows' sample counts give,
// and each window's summary.
func (ph *servePhase) windowed() (p50, tail, tailPct float64, wins []latency) {
	n := max(1, len(ph.arr)/serveWindowArrivals)
	var p50s, tails []float64
	for w := 0; w < n; w++ {
		win := &servePhase{arr: ph.arr[w*len(ph.arr)/n : (w+1)*len(ph.arr)/n]}
		l := summarize(win.solveMS())
		wins = append(wins, l)
		p50s = append(p50s, l.p50)
		tails = append(tails, l.tail)
		tailPct = l.tailPct
	}
	return median(p50s), median(tails), tailPct, wins
}

// searchMaxRPS finds max_rps. Steps of 1.5x from the nominal rate
// bracket the limit (down when the nominal rate already misses it),
// then steps of serveFineStep climb from the last passing rate to the
// first failing one. max_rps is where the score crosses serveLimitMS
// between those two rates, interpolated on a log scale, so it moves
// with the tail instead of jumping by a whole step. The windowed median
// already absorbs a stall of the machine, so each rate runs once.
func (b *serveBench) searchMaxRPS(ctx context.Context) (float64, []*servePhase, error) {
	var rungs []*servePhase
	test := func(rate float64) (float64, error) {
		secs := float64(b.e.seconds)
		n := max(int(secs*serveRungPerSec), int(rate*secs*serveRungSeconds))
		ph, err := b.runPhase(ctx, fmt.Sprintf("rung-%d", len(rungs)), n, rate)
		if err != nil {
			return 0, err
		}
		rungs = append(rungs, ph)
		score, why := ph.score()
		b.e.printf("rate search: %.2f/s over %d arrivals: %s", rate, n, why)
		return score, nil
	}
	lo, hi := serveNominalRate, 0.0
	loScore, err := test(lo)
	if err != nil {
		return 0, nil, err
	}
	hiScore := 0.0
	for loScore > serveLimitMS {
		hi, hiScore = lo, loScore
		if lo /= 1.5; lo < 1 {
			return 0, nil, fmt.Errorf("no rate meets the %.0f ms limit", serveLimitMS)
		}
		if loScore, err = test(lo); err != nil {
			return 0, nil, err
		}
	}
	for hi == 0 {
		r := lo * 1.5
		s, err := test(r)
		if err != nil {
			return 0, nil, err
		}
		if s <= serveLimitMS {
			lo, loScore = r, s
		} else {
			hi, hiScore = r, s
		}
	}
	for r := lo * serveFineStep; r < hi; r *= serveFineStep {
		s, err := test(r)
		if err != nil {
			return 0, nil, err
		}
		if s > serveLimitMS {
			hi, hiScore = r, s
			break
		}
		lo, loScore = r, s
	}
	if math.IsInf(hiScore, 1) {
		return lo, rungs, nil
	}
	f := math.Log(serveLimitMS/loScore) / math.Log(hiScore/loScore)
	return lo + f*(hi-lo), rungs, nil
}

// scrape reads the server's Prometheus counters.
func (b *serveBench) scrape() (map[string]float64, error) {
	resp, err := b.clients[0].Get(b.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
