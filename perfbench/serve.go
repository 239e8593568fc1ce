package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/serve"
	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/spec"
)

// The serve workload drives an in-process serve.Server behind a
// loopback net/http server, started with a pre-written journal attached
// (AttachJournal). Arrivals are open loop: each is due at a fixed time
// and timed from that time, so a stall counts against every request it
// delays. Two client connections (never more than nproc on the
// reference machine) carry the traffic:
//
//   - POST /v1/solve on seeded weight-mutated variants of a few moderate
//     corpus scenarios: a Zipf-drawn hot set that the journal already
//     holds (cache hits) and a fixed share of never-seen variants from
//     an unbounded seeded stream (misses: solve, cache insert, journal
//     append). The fixed fresh share keeps the hit ratio from drifting
//     towards 1 as the cache fills, so misses stay measured.
//   - POST /v1/session/{id}/events on a few live sessions, with
//     reversible events (diameter up/down, link-quality floor up/down)
//     so each session's work per event stays constant. A session's
//     events are sent in order, each after the previous one answered,
//     so every event's resulting state is known exactly.
//
// The nominal phase runs at a fixed rate; then a rate search finds
// max_rps, the highest rate whose tail_ms, computed as on the nominal
// phase, meets serveLimitMS with no growing backlog.
var (
	serveBases   = []string{"scenario-054.json", "scenario-141.json", "scenario-016.json", "scenario-153.json"}
	sessionBases = []string{"scenario-003.json", "scenario-010.json"}
)

// serveFreshBase (scenario-141) is the one base the never-seen variants
// mutate. With misses from several bases of different cost, tail_ms —
// the middle of the miss class — sat on the edge between two bases and
// flipped between them from run to run.
const serveFreshBase = 1

// The traffic mix. The hot set and its skew are netdag-loadgen's model
// as scripts/bench_pr8.sh runs it: 40 weight-mutated variants drawn
// with Zipf s=1.3. The fresh share rounds the miss share that run
// measured in BENCH_PR8.json (37 of 400 requests). The event share and
// the nominal rate are design choices, not observed traffic; README.md
// gives the reasons for their values.
const (
	serveClients        = 2
	serveHotPerBase     = 10 // 4 bases x 10 = bench_pr8's 40 variants
	serveZipfS          = 1.3
	serveFreshShare     = 0.10 // of solve requests: never-seen variants
	serveEventShare     = 0.08 // of arrivals: session events
	serveNominalRate    = 1000.0
	serveNominalPerSec  = 0.75 // nominal phase length per --seconds, in seconds
	serveWarmupArrivals = 1000
	serveWindowArrivals = 375  // p50_ms and tail_ms are medians over windows of this many arrivals
	serveSetupBatch     = 10   // scratch starts per set-up batch; 3 batches + the serving start = 31
	serveJournalRecords = 256  // the default cache capacity: a full cache restarts
	serveLimitMS        = 10.0 // tail_ms limit for max_rps
	serveRungPerSec     = 60   // rate-search rung: at least this many arrivals per --seconds
	serveRungSeconds    = 0.10 // and at least this long per --seconds
	serveFineStep       = 1.05 // rate-search step once the limit is bracketed
	// serveLinkFloor is the retransmission floor of the link-quality
	// events. The session bases' optimal schedules already use two
	// transmissions everywhere, so a floor of 2 would change nothing.
	serveLinkFloor = 3
)

// arrivalKind classifies one request of the plan.
type arrivalKind int

const (
	hotSolve arrivalKind = iota
	freshSolve
	sessionEvent
)

// arrival is one planned request and, after the phase, its outcome.
// Server-side timestamps are written by handler goroutines, hence
// atomics.
type arrival struct {
	kind    arrivalKind
	variant int // index into the variant table (solves)
	sess    int // session index (events)
	event   session.Event
	want    int64    // the makespan the event's resulting state has
	after   *arrival // the session's previous event in the phase
	done    chan struct{}
	body    []byte

	due, sent, end time.Time
	status         int
	cache          string
	warm           bool
	fingerprint    string
	bodyHash       [32]byte
	respBody       []byte // kept only until checked
	err            error

	hStart, hEnd, sStart, sEnd atomic.Int64 // unix ns; traced runs only
}

// variant is one weight-mutated spec.
type variant struct {
	file *spec.File
	body []byte
	fp   string
	key  string // problemKey of its built problem
}

// serveBench holds the workload's state across phases.
type serveBench struct {
	e        *env
	variants []*variant // hot set first, fresh ones appended as drawn
	hot      int
	bases    []*spec.File
	freshRng *rand.Rand
	seen     map[string]bool // fingerprints ever drawn

	sessions []liveSession
	eventSeq int

	*server // the instance the phases run against

	phase atomic.Pointer[servePhase] // traced phase, read by the wrappers

	bodies map[string][32]byte // fingerprint -> body hash: same spec, same bytes

	// Set-up samples: timed from-scratch starts, each on a fresh copy of
	// the pre-written journal.
	work           string
	journal        []byte
	setups, attach []float64
}

// server is one running serve.Server behind its loopback listener, with
// the client connections that talk to it.
type server struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{}
	url     string
	clients []*http.Client
}

type liveSession struct {
	id       string
	diameter int
	// makespans[d][n]: from-scratch optimum at diameter D+d with link
	// floor n (0 = unconstrained, 1 = serveLinkFloor).
	makespans [2][2]int64
}

func runServe(ctx context.Context, e *env) (outcome, error) {
	work := filepath.Join(e.root, ".bench_build", "work", fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(work)

	b := &serveBench{e: e, seen: map[string]bool{}, bodies: map[string][32]byte{}, work: work}
	defer func() {
		if b.server != nil {
			b.server.close()
		}
	}()
	if err := b.prepare(ctx, work); err != nil {
		return outcome{}, err
	}

	nominal := max(100, int(float64(e.seconds)*serveNominalPerSec*serveNominalRate))
	e.printf("serve: %d hot variants of %v, fresh share %.2f of solves, event share %.2f over %d sessions, %d client connections",
		b.hot, serveBases, serveFreshShare, serveEventShare, len(b.sessions), serveClients)
	e.printf("nominal phase: %d arrivals at %.0f/s open loop (+%d warm-up); latency limit for max_rps: tail_ms <= %.0f ms",
		nominal, serveNominalRate, serveWarmupArrivals, serveLimitMS)

	if _, err := b.runPhase(ctx, "warmup", serveWarmupArrivals, serveNominalRate); err != nil {
		return outcome{}, err
	}
	nom, err := b.runPhase(ctx, "nominal", nominal, serveNominalRate)
	if err != nil {
		return outcome{}, err
	}
	p50, tail := nom.report(e)
	attempted, failed := nom.ops(), nom.failed
	if err := b.setupSamples(ctx); err != nil {
		return outcome{}, err
	}

	if e.trace {
		return b.traced(ctx, nom, attempted, failed, nominal)
	}

	maxRPS, rungs, err := b.searchMaxRPS(ctx)
	if err != nil {
		return outcome{}, err
	}
	for _, r := range rungs {
		attempted += r.ops()
		failed += r.failed
	}
	if err := b.setupSamples(ctx); err != nil {
		return outcome{}, err
	}
	setupS := b.reportSetup()
	o := outcome{attempted: attempted, failed: failed, metrics: map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       maxRPS,
		"p50_ms":          p50,
		"tail_ms":         tail,
		"ok_ratio":        float64(attempted-failed) / float64(attempted),
		"alloc_mb_per_op": float64(nom.allocBytes) / 1e6 / float64(nom.ops()),
	}}
	e.printf("max_rps: %.2f /s (ops_per_s reports it)", maxRPS)
	return o, nil
}

// prepare builds the variants, pre-writes the journal, measures set-up
// and starts the server the phases run against.
func (b *serveBench) prepare(ctx context.Context, work string) error {
	man, err := loadManifest(filepath.Join(b.e.root, "examples", "corpus"))
	if err != nil {
		return err
	}
	for _, name := range serveBases {
		f, err := readSpec(b.e.root, name, man)
		if err != nil {
			return err
		}
		b.bases = append(b.bases, f)
	}
	rng := rand.New(rand.NewSource(b.e.seed))
	for len(b.variants) < serveJournalRecords {
		if err := b.addVariant(len(b.variants)%len(b.bases), rng); err != nil {
			return err
		}
	}
	b.hot = len(b.bases) * serveHotPerBase
	b.freshRng = rand.New(rand.NewSource(b.e.seed*7919 + 1))

	// Pre-write the journal: an earlier server life that filled its
	// cache. The variants past the hot set are older entries that are
	// never asked for again; they are written first, so replay leaves the
	// hot set most recent. The hot bodies are the reference for byte
	// identity.
	src := filepath.Join(work, "journal.src")
	pre := serve.New(serve.Config{})
	if _, err := pre.AttachJournal(src); err != nil {
		return err
	}
	for k := range b.variants {
		i := (k + b.hot) % len(b.variants)
		v := b.variants[i]
		rec := httptest.NewRecorder()
		pre.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(v.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("pre-writing the journal: variant %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if i >= b.hot {
			continue
		}
		if _, err := importBody(v, rec.Body.Bytes()); err != nil {
			return fmt.Errorf("pre-writing the journal: hot variant %d: %w", i, err)
		}
		b.bodies[v.fp] = sha256.Sum256(rec.Body.Bytes())
	}
	b.variants = b.variants[:b.hot] // fresh variants append after the hot set
	if err := pre.CloseJournal(); err != nil {
		return err
	}
	if b.journal, err = os.ReadFile(src); err != nil {
		return err
	}

	// The first timed start serves the run; setupSamples adds scratch
	// starts before the run, after the nominal phase and at the end.
	if b.server, err = b.timedStart(ctx); err != nil {
		return err
	}
	if err := b.setupSamples(ctx); err != nil {
		return err
	}

	for _, name := range sessionBases {
		if err := b.openSession(ctx, name, man); err != nil {
			return err
		}
	}
	return nil
}

// timedStart brings up a server on a fresh copy of the pre-written
// journal and records the set-up it took: serve.New, AttachJournal
// (replay and compaction), listen and the first /healthz.
func (b *serveBench) timedStart(ctx context.Context) (*server, error) {
	path := filepath.Join(b.work, fmt.Sprintf("journal.%d", len(b.setups)))
	if err := os.WriteFile(path, b.journal, 0o644); err != nil {
		return nil, err
	}
	t0 := time.Now()
	s, at, err := b.start(ctx, path)
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	b.attach = append(b.attach, at.Seconds()*1000)
	return s, nil
}

// setupSamples makes serveSetupBatch scratch starts, each closed again,
// while the serving instance idles between phases. Spreading the starts
// over the run makes their median sample the machine over the run
// rather than over the fraction of a second one batch takes.
func (b *serveBench) setupSamples(ctx context.Context) error {
	for range serveSetupBatch {
		s, err := b.timedStart(ctx)
		if err != nil {
			return err
		}
		s.close()
	}
	return nil
}

// reportSetup prints and returns setup_s: the median of every timed
// start.
func (b *serveBench) reportSetup() float64 {
	setupS := median(b.setups)
	b.e.printf("setup: median of %d from-scratch starts spread over the run (serve.New + AttachJournal replaying %d records + listen + first /healthz): %.4f s; AttachJournal alone %.3f ms",
		len(b.setups), serveJournalRecords, setupS, median(b.attach))
	return setupS
}

// start brings up a server on the journal at journalPath and returns
// it with how long AttachJournal took.
func (b *serveBench) start(ctx context.Context, journalPath string) (*server, time.Duration, error) {
	cfg := serve.Config{}
	if b.e.trace {
		cfg.SolveFn = b.tracedSolve
	}
	srv := serve.New(cfg)
	t0 := time.Now()
	if _, err := srv.AttachJournal(journalPath); err != nil {
		return nil, 0, err
	}
	at := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.CloseJournal() // the error being returned is the one that matters
		return nil, 0, err
	}
	var h http.Handler = srv
	if b.e.trace {
		h = &tracedHandler{b: b, next: srv}
	}
	s := &server{srv: srv, httpSrv: &http.Server{Handler: h}, served: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.served)
		s.httpSrv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	for range serveClients {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	if err := s.healthz(ctx); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, at, nil
}

func (s *server) healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := s.clients[0].Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// close stops the server and waits for it to exit.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Errors here cannot change the result: the server's work is done
	// and its journal lives in a directory that is removed at the end.
	_ = s.httpSrv.Shutdown(ctx)
	<-s.served
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.srv.CloseSessions()
	_ = s.srv.CloseJournal()
}

// traced repeats the nominal phase with the wrappers recording
// server-side time and a CPU profile running, and derives the per-layer
// metrics. The untraced nominal phase just run is the overhead baseline.
func (b *serveBench) traced(ctx context.Context, nom *servePhase, attempted, failed, n int) (outcome, error) {
	m0, err := b.scrape()
	if err != nil {
		return outcome{}, err
	}
	ph, err := b.plan("traced", n)
	if err != nil {
		return outcome{}, err
	}
	b.phase.Store(ph)
	shares, err := profiled(traceFile(b.e, "serve", "pprof"), func() error {
		b.drive(ctx, ph, serveNominalRate)
		return nil
	})
	b.phase.Store(nil)
	if err != nil {
		return outcome{}, err
	}
	b.checkPhase(ph)
	m1, err := b.scrape()
	if err != nil {
		return outcome{}, err
	}
	if err := b.setupSamples(ctx); err != nil {
		return outcome{}, err
	}
	b.reportSetup()
	ph.report(b.e)

	tr := newTracer()
	var handler, transport, preSolve, solve []float64
	var warm, rejected int
	for i, a := range ph.arr {
		if a.err != nil {
			continue
		}
		root := tr.add("client", i, -1, a.sent, a.end)
		if a.status == http.StatusTooManyRequests {
			rejected++
		}
		hs, he := a.hStart.Load(), a.hEnd.Load()
		if hs == 0 {
			continue
		}
		hspan := tr.add("serve.handler", i, root, time.Unix(0, hs), time.Unix(0, he))
		if a.kind == sessionEvent {
			continue
		}
		hMS := float64(he-hs) / 1e6
		handler = append(handler, hMS)
		transport = append(transport, float64(a.end.Sub(a.sent))/1e6-hMS)
		if a.cache != "miss" {
			continue
		}
		if a.warm {
			warm++
		}
		if ss, se := a.sStart.Load(), a.sEnd.Load(); ss != 0 {
			tr.add("serve.solve", i, hspan, time.Unix(0, ss), time.Unix(0, se))
			preSolve = append(preSolve, float64(ss-hs)/1e6)
			solve = append(solve, float64(se-ss)/1e6)
		}
	}
	lts := tr.aggregate()
	printTable(b.e.out, lts)

	classMS := func(class string) float64 {
		var ms []float64
		for _, a := range ph.solves() {
			if a.cache == class {
				ms = append(ms, a.latMS())
			}
		}
		return median(ms)
	}
	misses := ph.count("miss")
	delta := func(name string) float64 { return m1[name] - m0[name] }
	el := summarize(nom.eventMS())
	totalHandler := 0.0
	for _, h := range handler {
		totalHandler += h
	}
	totalSolve := 0.0
	for _, s := range solve {
		totalSolve += s
	}
	layer := map[string]float64{
		"core.solve_ms":          mean(solve),
		"core.solve_share":       totalSolve / totalHandler,
		"core.explored":          float64(ph.explored) / float64(max(1, ph.missBodies)),
		"core.solver_nodes":      float64(ph.solverN) / float64(max(1, ph.missBodies)),
		"runtime.gc_per_op":      float64(ph.gcs) / float64(ph.ops()),
		"runtime.objects_per_op": float64(ph.allocObjects) / float64(ph.ops()),
		"serve.hit_ratio":        float64(ph.count("hit")) / float64(len(ph.solves())),
		"serve.hit_ms":           classMS("hit"),
		"serve.miss_ms":          classMS("miss"),
		"serve.handler_ms":       mean(handler),
		"serve.transport_ms":     mean(transport),
		"serve.pre_solve_ms":     mean(preSolve),
		"serve.solve_ms":         mean(solve),
		"serve.warm_ratio":       float64(warm) / float64(max(1, misses)),
		"serve.rejected":         float64(rejected),
		"serve.coalesced":        float64(ph.count("coalesced")),
		"serve.gen_late_ms":      ph.lateness().p50,
		"journal.replay_ms":      median(b.attach),
		"journal.appended":       delta("netdag_journal_appended_total"),
		"session.resolve_ms":     1000 * delta("netdag_session_resolve_seconds_sum") / math.Max(1, delta("netdag_session_resolve_seconds_count")),
		"session.warm_hits":      delta("netdag_session_warm_hits_total"),
		"session.event_p50_ms":   el.p50,
		"session.event_tail_ms":  el.tail,
		"trace.overhead_pct":     overheadPct(mean(nom.solveMS()), mean(ph.solveMS())),
	}
	addCPU(b.e, layer, shares)
	if err := tr.write(traceFile(b.e, "serve", "jsonl")); err != nil {
		return outcome{}, err
	}
	return outcome{attempted: attempted + ph.ops(), failed: failed + ph.failed, metrics: layer}, nil
}

// tracedHandler times ServeHTTP for arrivals of the traced phase.
type tracedHandler struct {
	b    *serveBench
	next http.Handler
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ph := h.b.phase.Load()
	if ph == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	if i, err := strconv.Atoi(r.Header.Get(arrivalHeader)); err == nil && i >= 0 && i < len(ph.arr) {
		ph.arr[i].hStart.Store(t0.UnixNano())
		ph.arr[i].hEnd.Store(t1.UnixNano())
	}
}

// tracedSolve is the server's SolveFn in traced runs: core.SolveContext
// timed and attributed to the arrival whose variant it solves.
func (b *serveBench) tracedSolve(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
	ph := b.phase.Load()
	if ph == nil {
		return core.SolveContext(ctx, p)
	}
	t0 := time.Now()
	s, err := core.SolveContext(ctx, p)
	t1 := time.Now()
	if i, ok := ph.byKey[problemKey(p)]; ok {
		ph.arr[i].sStart.Store(t0.UnixNano())
		ph.arr[i].sEnd.Store(t1.UnixNano())
	}
	return s, err
}
