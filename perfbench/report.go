package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
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

// checks collects the output checks that failed and the percentiles
// the run had too few samples for; either makes the result's correct
// field false.
type checks struct {
	problems []string
	thin     []string
}

// fail records a failed output check.
func (c *checks) fail(format string, args ...any) {
	// Cap the list: one broken invariant tends to fail every epoch.
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// tooFew records a percentile without ten samples beyond it.
func (c *checks) tooFew(name string, n int, q float64) {
	c.thin = append(c.thin, fmt.Sprintf("%s: %d samples are too few for the %.3g quantile", name, n, q))
}

// valid reports whether every output check passed so far.
func (c *checks) valid() bool { return len(c.problems) == 0 }

func (c *checks) ok() bool { return c.valid() && len(c.thin) == 0 }

// rootsFile records each pipeline run's final state root by workload,
// seed and size; a later run with the same key must end at the same
// root.
var rootsFile = filepath.Join(".bench_build", "perfbench-roots.json")

// root checks the run's final root against the recorded one and
// records it when it is the first.
func (c *checks) root(cfg runConfig, res *result) {
	key := fmt.Sprintf("%s seed=%d epochs=%v", cfg.workload, cfg.seed, res.params["epochs_per_round"])
	roots := map[string]string{}
	if b, err := os.ReadFile(rootsFile); err == nil {
		if err := json.Unmarshal(b, &roots); err != nil {
			c.fail("read %s: %v", rootsFile, err)
			return
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		c.fail("read %s: %v", rootsFile, err)
		return
	}
	if prev, ok := roots[key]; ok {
		if prev != res.root {
			c.fail("%s: final root %s, an earlier run ended at %s", key, res.root, prev)
		}
		return
	}
	roots[key] = res.root
	b, err := json.MarshalIndent(roots, "", "  ")
	if err == nil {
		err = os.WriteFile(rootsFile, b, 0o666)
	}
	if err != nil {
		c.fail("record root: %v", err)
	}
}

// sourceDigest hashes the program's Go sources and module files under
// dir, skipping hidden directories (the build directory among them).
// A checkout made for a run is not a git repository, so the digest
// stands in for the commit.
func sourceDigest(dir string) (string, error) {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gcCPU is a reading of the runtime's cumulative CPU accounting.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// fraction is the share of CPU time spent in GC between two readings.
func (after gcCPU) fraction(before gcCPU) float64 {
	return ratio(after.gc-before.gc, after.total-before.total)
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
