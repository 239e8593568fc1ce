package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuPatterns attributes CPU-profile samples to layers by function-name
// substring. A sample counts toward a layer when any frame of its stack
// matches, so the shares are cumulative and may overlap (placement
// includes the STN it drives; malloc includes GC assists). When a
// function is renamed, its pattern stops matching and the share is
// reported missing instead of silently reading 0.
var cpuPatterns = []struct {
	metric   string
	patterns []string
}{
	{"cpu.chi", []string{"internal/core.(*chiInstance)."}},
	{"cpu.place", []string{"internal/core.(*Problem).place", "internal/solver."}},
	{"cpu.stn", []string{"internal/stn."}},
	{"cpu.malloc", []string{"runtime.mallocgc"}},
	{"cpu.gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}},
}

// profiled runs phase under a runtime/pprof CPU profile kept in memory,
// then writes the profile to path and attributes its samples from the
// stacks `go tool pprof -traces` prints.
func profiled(path string, phase func() error) (cpuShares, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuShares{}, err
	}
	perr := phase()
	pprof.StopCPUProfile()
	if perr != nil {
		return cpuShares{}, perr
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return cpuShares{}, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return cpuShares{}, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	stacks, err := parseTraces(out)
	if err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return attribute(stacks), nil
}

// stack is one sampled call stack and its sample count.
type stack struct {
	samples int64
	frames  []string
}

// parseTraces reads `go tool pprof -traces -sample_index=samples`
// output: a header, then blocks separated by "-----------+---" lines,
// each opening with the sample count and the leaf frame, followed by
// one caller frame per line.
func parseTraces(out []byte) ([]stack, error) {
	var stacks []stack
	var cur *stack
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			stacks = append(stacks, stack{})
			cur = &stacks[len(stacks)-1]
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if cur == nil || len(f) == 0 {
			continue // header
		}
		if len(cur.frames) == 0 {
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("unexpected trace line %q", line)
			}
			cur.samples = n
			f = f[1:]
		}
		cur.frames = append(cur.frames, strings.Join(f, " "))
	}
	return stacks, sc.Err()
}

// cpuShares is the attribution of one profile.
type cpuShares struct {
	samples int64
	share   map[string]float64 // metric -> share of samples
	missing map[string]bool    // metric -> its patterns matched no sampled frame
}

func attribute(stacks []stack) cpuShares {
	out := cpuShares{share: map[string]float64{}, missing: map[string]bool{}}
	hits := make(map[string]int64)
	matchedAny := make(map[string]bool)
	for _, s := range stacks {
		out.samples += s.samples
		for _, c := range cpuPatterns {
			for _, name := range s.frames {
				if matches(name, c.patterns) {
					hits[c.metric] += s.samples
					matchedAny[c.metric] = true
					break
				}
			}
		}
	}
	for _, c := range cpuPatterns {
		if !matchedAny[c.metric] || out.samples == 0 {
			out.missing[c.metric] = true
			continue
		}
		out.share[c.metric] = float64(hits[c.metric]) / float64(out.samples)
	}
	return out
}

func matches(name string, patterns []string) bool {
	for _, p := range patterns {
		if strings.Contains(name, p) {
			return true
		}
	}
	return false
}
