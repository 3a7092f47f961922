// Command xpqbench is the repository's benchmark: open-loop HTTP
// traffic from one client process against a spawned xpqd, with every
// answer checked against an in-process oracle, plus a traced mode that
// replays the same request stream in-process and decomposes it by
// layer. See README.md for the workloads and metrics.
//
//	xpqbench --workload paper-pages --seed 1 --seconds 10 --trace 0 --xpqd path/to/xpqd
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

const (
	// setupRuns is how many times xpqd is spawned to take setup_s as
	// a median; the last two instances serve the run.
	setupRuns = 11
	// warmPhase runs the workload's open loop on one connection before
	// the timed phase, so caches are filled and lazy set-up is done.
	warmPhase = 2 * time.Second
	// rounds interleaves the timed phase with the closed-loop capacity
	// phase: each round runs a slice of the timed open loop against one
	// xpqd, then a slice of the closed loop against a second, identical
	// one. The machine's speed drifts by tens of percent over seconds
	// on a shared VM; interleaved, every metric samples the whole run
	// rather than one stretch of it. The second daemon keeps the closed
	// loop's load (and, on patch-churn, its uncapped patch rate) out of
	// the heap and the RSS of the first.
	rounds = 4
	// capacityPhase is the closed loop's length summed over the rounds.
	// capacity_rps is the median over the capacityWindow windows of
	// every slice after its first capacityRamp, during which the
	// throughput settles from idle to the closed loop's.
	capacityPhase  = 16 * time.Second
	capacityRamp   = time.Second
	capacityWindow = 500 * time.Millisecond
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	xpqd     string
	work     string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated documents and request stream")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced in-process replay reporting per-layer metrics")
	flag.StringVar(&cfg.xpqd, "xpqd", ".bench_build/xpqd", "xpqd binary built from the tree under test")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs, logs and traces")
	flag.Parse()
	cfg.trace = trace == 1
	// The harness shares the CPUs with xpqd: collect its garbage less
	// often.
	debug.SetGCPercent(400)
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xpqbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value (0: not a sample statistic).
	n int
}

// report is the final line's object.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.xpqd); err != nil {
		return fmt.Errorf("xpqd binary: %w", err)
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-trace%v", wl.name, cfg.seed, cfg.trace))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	docs := wl.docs(cfg.seed)
	input := filepath.Join(dir, "input")
	// The inputs (55MB for corpus-cold) go once the run has stopped
	// xpqd; the logs, result row and spans stay.
	defer os.RemoveAll(input)
	docFlags, inputBytes, err := writeInputs(wl, docs, input)
	if err != nil {
		return err
	}
	or, err := buildOracle(docs, wl.queries)
	if err != nil {
		return err
	}
	args := append(docFlags, wl.daemonFlags(inputBytes)...)
	var rep *report
	var prov map[string]any
	if cfg.trace {
		rep, prov, err = runTraced(cfg, wl, docs, or, inputBytes, dir)
	} else {
		rep, prov, err = runUntraced(cfg, wl, docs, or, args, dir)
	}
	if err != nil {
		return err
	}
	prov["workload"], prov["seed"], prov["trace"] = wl.name, cfg.seed, cfg.trace
	prov["input_bytes"] = inputBytes
	prov["xpqd_flags"] = strings.Join(args, " ")
	addBuildProvenance(prov)
	row, _ := json.Marshal(map[string]any{"provenance": prov, "result": rep})
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(row, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", mustJSON(prov))
	printMetrics("metric", rep.Metrics)
	fmt.Println(mustJSON(rep))
	if !rep.Correct {
		return fmt.Errorf("the oracle rejected answers (%d of %d operations failed)", rep.Failed, rep.Attempted)
	}
	return nil
}

// runUntraced is the timed mode: spawn xpqd and measure setup, warm
// up, then run the open-loop timed phase and the closed-loop capacity
// phase in interleaved rounds.
func runUntraced(cfg config, wl *workload, docs []*docSpec, or *oracle, args []string, dir string) (*report, map[string]any, error) {
	// The last two daemons spawned stay up: the first serves the timed
	// phase, the second the capacity phase.
	var setups []float64
	var live []*daemon
	defer func() {
		for _, d := range live {
			d.stop()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		d, took, err := startDaemon(cfg.xpqd, args, filepath.Join(dir, fmt.Sprintf("xpqd-%d.log", i)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-2 {
			d.stop()
		} else {
			live = append(live, d)
		}
	}

	conns := runtime.NumCPU()
	cl, err := connect(live[0], conns, wl, docs, or)
	if err != nil {
		return nil, nil, err
	}
	capCl, err := connect(live[1], conns, wl, docs, or)
	if err != nil {
		return nil, nil, err
	}
	// Warm every cache with the same open loop on one connection, so
	// the Auto selector's first probes do not run concurrently.
	warmOps := opStream(wl, len(docs), cfg.seed, "warm", int(wl.rate*warmPhase.Seconds()))
	warm := openLoop(warmOps, 1, cl.session)
	capWarm := openLoop(warmOps, 1, capCl.session)
	st0, err := scrapeStats(cl.hc, cl.base)
	if err != nil {
		return nil, nil, err
	}
	ops := opStream(wl, len(docs), cfg.seed, "timed", int(wl.rate*float64(cfg.seconds)))
	capOps := opStream(wl, len(docs), cfg.seed, "capacity", 100000)
	var slices []loopResult
	var capSamples []sample
	var rates []float64
	capOK := 0
	var capElapsed time.Duration
	per := (len(ops) + rounds - 1) / rounds
	for k := 0; k < rounds; k++ {
		part := ops[min(k*per, len(ops)):min((k+1)*per, len(ops))]
		slices = append(slices, openLoop(part, conns, cl.session))
		c := closedLoop(capOps[k*len(capOps)/rounds:], conns, capacityPhase/rounds, capCl.session)
		r, ok := capacityRates(c, capacityRamp, capacityWindow)
		rates, capOK = append(rates, r...), capOK+ok
		capSamples = append(capSamples, c.samples...)
		capElapsed += c.elapsed
	}
	res := joinSlices(slices)
	st1, err := scrapeStats(cl.hc, cl.base)
	if err != nil {
		return nil, nil, err
	}
	rss, err := live[0].peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	rep := &report{Metrics: map[string]metric{}}
	var read, resume, ttfb, patch []timed
	wrong := countFailures(rep, warm.samples, capWarm.samples, res.samples, capSamples)
	for _, s := range res.samples {
		if !s.ok {
			continue
		}
		l := timed{s.due, ms(s.latency)}
		switch s.class {
		case classPatch:
			patch = append(patch, l)
			continue
		case classResume:
			resume = append(resume, l)
		}
		read = append(read, l)
		if s.stream {
			ttfb = append(ttfb, timed{s.due, ms(s.ttfb)})
		}
	}
	rep.Correct = wrong == 0
	m := rep.Metrics
	m["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}
	m["capacity_rps"] = metric{Value: median(append([]float64(nil), rates...)), Unit: "1/s", n: capOK}
	fmt.Printf("info   %-32s windows %.4g\n", "capacity_rps", rates)
	m["peak_rss_mb"] = metric{Value: rss, Unit: "MB", n: 1}
	// read_p99_ms is printed, not gated: on a 2-vCPU VM its spread over
	// ten seeds exceeded the largest allowed bound (see README.md).
	extra := map[string]metric{"error_frac": {Value: ratio(float64(rep.Failed), float64(rep.Attempted)), Unit: "ratio", n: rep.Attempted}}
	var missing []string
	for _, e := range []struct {
		name  string
		xs    []timed
		q     float64
		gated bool
	}{{"read_p50_ms", read, 0.5, true}, {"read_p99_ms", read, 0.99, false}, {"ttfb_p50_ms", ttfb, 0.5, true}} {
		v, per, ok := windowedQuantile(e.xs, res.start, res.span, e.q)
		switch {
		case ok && e.gated:
			m[e.name] = metric{Value: v, Unit: "ms", n: len(e.xs)}
		case ok:
			extra[e.name] = metric{Value: v, Unit: "ms", n: len(e.xs)}
		case e.gated:
			missing = append(missing, fmt.Sprintf("%s (%d samples)", e.name, len(e.xs)))
		}
		if ok {
			fmt.Printf("info   %-32s windows %.4g\n", e.name, per)
		}
	}
	// Workload-specific metrics and whole-run percentiles are printed,
	// not part of the JSON line.
	for _, e := range []struct {
		name string
		xs   []timed
		q    float64
	}{
		{"resume_p50_ms", resume, 0.5}, {"ttfb_p99_ms", ttfb, 0.99},
		{"patch_p50_ms", patch, 0.5}, {"patch_p99_ms", patch, 0.99},
		{"run.read_p99_ms", read, 0.99}, {"run.read_max_ms", read, 1},
	} {
		if v, ok := quantile(values(e.xs), e.q); ok || e.q == 1 && len(e.xs) > 0 {
			extra[e.name] = metric{Value: v, Unit: "ms", n: len(e.xs)}
		}
	}
	lag, _ := quantile(res.lag, 0.99)
	backlog, _ := quantile(res.backlog, 0.99)
	extra["harness.gen_lag_p99_ms"] = metric{Value: lag, Unit: "ms", n: len(res.lag)}
	extra["harness.backlog_p99_ms"] = metric{Value: backlog, Unit: "ms", n: len(res.backlog)}
	for name, v := range statsDeltas(st0, st1) {
		extra[name] = v
	}
	printMetrics("info", extra)
	if len(missing) > 0 {
		printMetrics("metric", rep.Metrics)
		return nil, nil, fmt.Errorf("too few samples to report %s", strings.Join(missing, ", "))
	}

	prov := map[string]any{
		"mode":            "untraced",
		"offered_rps":     wl.rate,
		"connections":     conns,
		"xpqd_gomaxprocs": len(st1.Shards),
		"strategy_mix":    strategyMix(res.samples),
		// The closed loop runs on its own daemon, whose Auto selector
		// chooses for itself.
		"capacity_strategy_mix": strategyMix(capSamples),
		"timed_ops":             len(ops),
		"rounds":                rounds,
		"timed_elapsed_s":       res.elapsed.Seconds(),
		"capacity_phase_s":      capElapsed.Seconds(),
		"setup_samples_s":       setups,
	}
	return rep, prov, nil
}

// strategyMix tallies the strategies that answered the successful
// reads of samples.
func strategyMix(samples []sample) map[string]int {
	mix := map[string]int{}
	for _, s := range samples {
		if s.ok && s.class != classPatch {
			mix[s.strategy]++
		}
	}
	return mix
}

// countFailures adds every sample to rep's attempted and failed counts
// and returns how many answers the oracle rejected. Refused requests
// (non-200 statuses) count as failed but do not make the run incorrect.
func countFailures(rep *report, sets ...[]sample) (wrong int) {
	for _, set := range sets {
		for _, s := range set {
			rep.Attempted++
			if s.ok {
				continue
			}
			rep.Failed++
			if s.wrong {
				wrong++
			}
			if rep.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "xpqbench: failed operation (wrong answer: %v): %s\n", s.wrong, s.err)
			}
		}
	}
	return wrong
}

// statsDeltas turns two /stats snapshots into the count-type layer
// metrics.
func statsDeltas(a, b *service.Stats) map[string]metric {
	out := map[string]metric{}
	hits := float64(b.Cache.Hits - a.Cache.Hits)
	misses := float64(b.Cache.Misses - a.Cache.Misses)
	out["qcache.hit_rate"] = metric{Value: ratio(hits, hits+misses), Unit: "ratio"}
	out["qcache.evictions"] = metric{Value: float64(b.Cache.Evictions - a.Cache.Evictions), Unit: "count"}
	var waitNS, acq float64
	for i := range b.Shards {
		waitNS += float64(b.Shards[i].LockWaitTotalNS)
		acq += float64(b.Shards[i].LockAcquires)
		if i < len(a.Shards) {
			waitNS -= float64(a.Shards[i].LockWaitTotalNS)
			acq -= float64(a.Shards[i].LockAcquires)
		}
	}
	queries := float64(b.Queries.Total - a.Queries.Total)
	out["service.lock_wait_us"] = metric{Value: ratio(waitNS/1e3, queries), Unit: "us"}
	ph := float64(b.Pool.Hits) - float64(a.Pool.Hits)
	pm := float64(b.Pool.Misses) - float64(a.Pool.Misses)
	out["core.ctxpool_hit_rate"] = metric{Value: ratio(ph, ph+pm), Unit: "ratio"}
	out["store.map_faults"] = metric{Value: float64(b.Mapped.MapFaults - a.Mapped.MapFaults), Unit: "count"}
	out["store.charged_frac"] = metric{Value: ratio(float64(b.Mapped.ChargedBytes), float64(b.Mapped.MappedBytes)), Unit: "ratio"}
	out["store.live_gens"] = metric{Value: float64(b.MVCC.LiveGenerations), Unit: "count"}
	out["store.patches"] = metric{Value: float64(b.MVCC.Patches - a.MVCC.Patches), Unit: "count"}
	return out
}

// printMetrics prints one line per metric, sorted by name, tagged
// "metric" for the JSON line's metrics and "info" for the rest.
func printMetrics(tag string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Printf("%-6s %-32s %14.4f %-6s n=%d\n", tag, n, m.Value, m.Unit, m.n)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// addBuildProvenance records the toolchain, the machine and which
// source tree was measured: the git commit when the checkout is a
// repository, and always a digest of the Go sources.
func addBuildProvenance(prov map[string]any) {
	prov["go_version"] = runtime.Version()
	prov["nproc"] = runtime.NumCPU()
	prov["harness_gomaxprocs"] = runtime.GOMAXPROCS(0)
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	prov["commit"] = commit
	prov["source_sha256"] = sourceDigest(".")
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// dot-directories such as the build directory), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
