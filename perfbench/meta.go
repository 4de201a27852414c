package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// printMeta records what a number needs to be compared: the machine, the
// Go runtime, the source revision and the seed.
func printMeta(w io.Writer, wl *workloadDef, b *bench) {
	model, mhz := cpuModel()
	fmt.Fprintf(w, "meta workload=%s seed=%d seconds=%g trace=%v\n", wl.name, b.seed, b.seconds, b.traced)
	fmt.Fprintf(w, "meta why=%q\n", wl.why)
	fmt.Fprintf(w, "meta cpu=%q mhz=%s gomaxprocs=%d numcpu=%d go=%s %s/%s\n",
		model, mhz, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "meta commit=%s source_sha256=%s\n", gitCommit("."), sourceDigest("."))
}

func cpuModel() (model, mhz string) {
	model, mhz = "unknown", "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(v)
			}
		case "cpu MHz":
			if mhz == "unknown" {
				mhz = strings.TrimSpace(v)
			}
		}
	}
	return
}

// gitCommit reads the checked-out revision without running git; a source
// tree that is not a git checkout reports "none" and is identified by its
// source digest instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories (VCS metadata, build output), so runs of one source
// tree carry one identifier whether or not it is a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// phase brackets a timed phase: host time, allocations and GC work, less
// what untimed work inside it used.
type phase struct {
	start    time.Time
	rt       runtimeSample
	skip     runtimeSample
	skipSecs float64
}

func startPhase() phase { return phase{start: time.Now(), rt: readRuntime()} }

// exclude takes the work done since start, which read rt, out of the
// phase.
func (p *phase) exclude(start time.Time, rt runtimeSample) {
	now := readRuntime()
	p.skipSecs += time.Since(start).Seconds()
	p.skip.allocBytes += now.allocBytes - rt.allocBytes
	p.skip.gcCycles += now.gcCycles - rt.gcCycles
	p.skip.gcCPU += now.gcCPU - rt.gcCPU
	p.skip.totalCPU += now.totalCPU - rt.totalCPU
}

// phaseCost is what a phase used.
type phaseCost struct {
	secs      float64
	allocMB   float64
	gcCycles  float64
	gcCPUFrac float64
}

func (p phase) stop() phaseCost {
	secs := time.Since(p.start).Seconds() - p.skipSecs
	rt := readRuntime()
	c := phaseCost{
		secs:     secs,
		allocMB:  (rt.allocBytes - p.rt.allocBytes - p.skip.allocBytes) / (1 << 20),
		gcCycles: rt.gcCycles - p.rt.gcCycles - p.skip.gcCycles,
	}
	if cpu := rt.totalCPU - p.rt.totalCPU - p.skip.totalCPU; cpu > 0 {
		c.gcCPUFrac = (rt.gcCPU - p.rt.gcCPU - p.skip.gcCPU) / cpu
	}
	return c
}

// finishCommon records the metrics every workload shares: allocation per
// work cycle, the RSS high-water mark, and the runtime's GC layer.
func (b *bench) finishCommon(c phaseCost, cycles int) error {
	if cycles < 1 {
		return fmt.Errorf("no complete work cycle in the timed phase")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("alloc_mb", c.allocMB/float64(cycles), "MB")
	b.set("peak_rss_mb", rss, "MB")
	b.layer["runtime.gc_cpu_frac"] = c.gcCPUFrac
	b.layer["runtime.gc_cycles"] = c.gcCycles
	return nil
}
