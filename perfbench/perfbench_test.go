package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/netdag/netdag/internal/session"
)

// root is the repository the tests measure: the module's parent.
const root = ".."

// lastJSON parses the result line: the last line of the output.
func lastJSON(t *testing.T, out string) resultOut {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// TestShortRunsReportEveryMetric runs every workload briefly, untraced
// and traced, and requires every metric by name with its unit, and
// every op correct.
func TestShortRunsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			var buf bytes.Buffer
			if err := run(context.Background(), &buf, wl.name, root, 1, 1, trace); err != nil {
				t.Fatalf("%s trace=%t: %v", wl.name, trace, err)
			}
			res := lastJSON(t, buf.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					wl.name, trace, res.Correct, res.Failed, res.Attempted, buf.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", wl.name, trace, d.name, m, d.unit)
				}
				if !strings.Contains(buf.String(), "metric "+d.name) {
					t.Errorf("%s trace=%t: report does not print %s", wl.name, trace, d.name)
				}
			}
			if !trace {
				if got := res.Metrics["ok_ratio"].Value; got != 1 {
					t.Errorf("%s: ok_ratio = %v, want 1", wl.name, got)
				}
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestTamperedManifestFailsOps proves the corpus checks bite: with one
// MANIFEST makespan off by one in a copy of the corpus, exactly that
// scenario fails, once per measured pass.
func TestTamperedManifestFailsOps(t *testing.T) {
	tmp := t.TempDir()
	src := filepath.Join(root, "examples", "corpus")
	dst := filepath.Join(tmp, "examples", "corpus")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(src, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(f) == "MANIFEST.json" {
			var man map[string]any
			if err := json.Unmarshal(b, &man); err != nil {
				t.Fatal(err)
			}
			ent := man["entries"].([]any)[0].(map[string]any)
			if ent["status"] != "solved" {
				t.Fatalf("first MANIFEST entry is %v; the test needs a solved one", ent["status"])
			}
			ent["makespan"] = ent["makespan"].(float64) + 1
			if b, err = json.Marshal(man); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "corpus", tmp, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	res := lastJSON(t, buf.String())
	passes := res.Attempted / len(files[:len(files)-1])
	if res.Correct || res.Failed != passes {
		t.Errorf("tampered MANIFEST: correct=%t failed=%d, want false and %d (one per pass)", res.Correct, res.Failed, passes)
	}
	if got, want := res.Metrics["ok_ratio"].Value, float64(res.Attempted-passes)/float64(res.Attempted); got != want {
		t.Errorf("ok_ratio = %v, want %v", got, want)
	}
	if !strings.Contains(buf.String(), "scenario-000.json: makespan") {
		t.Errorf("report does not name the failing scenario:\n%s", buf.String())
	}
}

// TestEventCheckIsExact: each event of a session's cycle accepts only
// the makespan of the state it leaves the session in, not that of a
// neighbouring state.
func TestEventCheckIsExact(t *testing.T) {
	b := &serveBench{sessions: []liveSession{{diameter: 3, makespans: [2][2]int64{{100, 130}, {110, 140}}}}}
	for step, want := range []int64{110, 100, 130, 100} {
		si, ev, got := b.nextEvent()
		if got != want {
			t.Fatalf("step %d (%+v): expected makespan %d, want %d", step, ev, got, want)
		}
		for _, m := range []int64{100, 110, 130, 140} {
			body, err := json.Marshal(session.Entry{Outcome: session.OutcomeApplied, State: session.StateActive, Makespan: m})
			if err != nil {
				t.Fatal(err)
			}
			err = b.checkEvent(&arrival{kind: sessionEvent, sess: si, event: ev, want: got, respBody: body})
			if (err == nil) != (m == want) {
				t.Errorf("step %d (%+v), served makespan %d: check error %v", step, ev, m, err)
			}
		}
	}
}

func TestRefusesTreeWithoutRepository(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, "corpus", t.TempDir(), 1, 1, false); err == nil {
		t.Fatal("run succeeded without a repository")
	}
	if strings.Contains(buf.String(), `"metrics"`) {
		t.Error("printed a result without a repository")
	}
}

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {6000, 99.75}, {3450, 99}, {3999, 99}, {360, 95}, {100, 90}, {15, 50}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - rank(tailPct(c.n), c.n); beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail", c.n, beyond)
			}
		}
	}
}

func TestCheckClassFlagsBoundary(t *testing.T) {
	ms := make([]float64, 100)
	labels := make([]string, 100)
	for i := range ms {
		ms[i], labels[i] = float64(i), "fast"
		if i >= 90 {
			labels[i] = "slow"
		}
	}
	if got := checkClass("tail", 99, ms, labels, "slow"); !strings.HasSuffix(got, ": ok") {
		t.Errorf("p99 inside the slow tenth: %s", got)
	}
	if got := checkClass("tail", 90, ms, labels, "slow"); !strings.Contains(got, "WARNING") {
		t.Errorf("p90 on the boundary: %s", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("op", 1, -1, at(0), at(100))
	tr.add("a", 1, root, at(10), at(30))
	tr.add("b", 1, root, at(20), at(50)) // overlaps a
	tr.add("c", 1, root, at(60), at(70))
	op := get(tr.aggregate(), "op")
	if op.Self != 50*time.Millisecond {
		t.Errorf("self time %v, want 50ms (100 minus the 50ms children cover)", op.Self)
	}
}

// TestCPUProfileAttribution reads a real CPU profile: an allocation
// loop must show up under cpu.malloc, and core's χ pattern, which
// nothing here runs, must be reported missing rather than 0.
func TestCPUProfileAttribution(t *testing.T) {
	sh, err := profiled(filepath.Join(t.TempDir(), "cpu.pprof"), func() error {
		var keep [][]byte
		for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
			keep = append(keep, make([]byte, 64))
			if len(keep) > 1<<16 {
				keep = keep[:0]
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh.samples == 0 {
		t.Fatal("no CPU samples decoded")
	}
	if sh.missing["cpu.malloc"] || sh.share["cpu.malloc"] <= 0 {
		t.Errorf("cpu.malloc share %v (missing %t), want > 0", sh.share["cpu.malloc"], sh.missing["cpu.malloc"])
	}
	if !sh.missing["cpu.chi"] {
		t.Errorf("cpu.chi matched in a process that never solved")
	}
}
