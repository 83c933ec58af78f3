package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"choco/internal/par"
	"choco/internal/ring"
)

// provenance says what ran where: every result carries it.
type provenance struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Commit is the git HEAD of the checkout, when it is a git
	// repository; SourceDigest hashes the Go sources and go.mod files
	// either way, so results from a plain source export stay traceable.
	Commit        string `json:"commit"`
	SourceDigest  string `json:"source_digest"`
	CPU           string `json:"cpu"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Parallelism   int    `json:"he_parallelism"`
	GoVersion     string `json:"go_version"`
	VectorKernels bool   `json:"vector_kernels"`
	SetupReps     int    `json:"setup_reps"`
	MemoryLimitMB int    `json:"memory_limit_mib"`
	Started       string `json:"started_utc"`
}

func collectProvenance(root, workload string, e *env) provenance {
	return provenance{
		Workload: workload, Seed: e.seed, Seconds: e.seconds, Trace: e.traced(),
		Commit:        gitHead(root),
		SourceDigest:  sourceDigest(root),
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Parallelism:   par.Parallelism(),
		GoVersion:     runtime.Version(),
		VectorKernels: ring.VectorKernelsEnabled(),
		SetupReps:     e.setupReps,
		MemoryLimitMB: memoryLimit >> 20,
		Started:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitHead resolves .git/HEAD by hand (no git process), or "unknown".
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root, by path and
// content, skipping build output and version-control directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not enter the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p) // p is under root
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// summarizeRuns groups the result files under dir by workload and trace
// mode and prints, per metric, the median and quartiles across runs and
// the interquartile range as a share of the median — the spread the
// benchmark's bounds are set against.
func summarizeRuns(dir string, w io.Writer) error {
	files, err := filepath.Glob(filepath.Join(dir, "*", "result.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no results under %s", dir)
	}
	type group struct {
		runs    int
		correct int
		values  map[string][]float64
		seeds   []int64
	}
	groups := map[string]*group{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s trace=%v", r.Provenance.Workload, r.Provenance.Trace)
		g := groups[key]
		if g == nil {
			g = &group{values: map[string][]float64{}}
			groups[key] = g
		}
		g.runs++
		if r.Correct {
			g.correct++
		}
		g.seeds = append(g.seeds, r.Provenance.Seed)
		for n, v := range r.Metrics {
			g.values[n] = append(g.values[n], v.Value)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(w, "%s: %d runs, %d correct, seeds %v\n", k, g.runs, g.correct, g.seeds)
		names := make([]string, 0, len(g.values))
		for n := range g.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			xs := g.values[n]
			med := Median(xs)
			q1, _, q3, ok := Quartiles(xs)
			if !ok {
				fmt.Fprintf(w, "  %-34s value  %14.4f\n", n, med)
				continue
			}
			spread := math.NaN()
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			fmt.Fprintf(w, "  %-34s median %14.4f  q1 %14.4f  q3 %14.4f  iqr/median %7.4f\n", n, med, q1, q3, spread)
		}
	}
	return nil
}
