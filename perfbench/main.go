// Command perfbench is the repository's FL-round benchmark. It runs one
// named workload as a closed loop — one fl.Trainer calling RunRound back
// to back with Workers = nproc — for a fixed time, checks the trained
// model against an in-process reference, and prints every metric by
// name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on a
// deployment without any tracing seam. With --trace 1 the same loop
// alternates untraced and traced blocks of rounds on a deployment whose
// layer boundaries are wrapped, and reports the per-layer metrics, the
// per-layer self-time table and the tracing overhead.
//
// Run it through run.sh from the repository root (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fl"
)

const (
	setupReps    = 41 // setups per untraced run; setup_s is their median
	warmupRounds = 3  // untimed rounds before the measured loop
	blockRounds  = 4  // rounds per untraced/traced block of a traced run
	aucRounds    = 50 // rounds the reported AUC is taken after
	// heapRounds is the measured round after which live_heap_mb is taken:
	// serving state grows with every round, so a fixed point keeps the
	// heap figure from following throughput. It is small enough for every
	// workload to reach in a run on a slow host (inproc-tee fits about 35
	// rounds in 15 s on a contended 2-vCPU host).
	heapRounds = 20
	// selfTolerance bounds |Σ self times − Σ round wall| / Σ round wall.
	selfTolerance = 0.01
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", pinSeed, "seed of the dataset and of fl.Config.Seed")
	seconds := fs.Float64("seconds", 10, "length of the measured loop")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch storage and result files")
	pin := fs.Bool("pin", false, "print the pinned-seed reference fingerprints and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		return printPins()
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(os.Stdout)
	if err := rep.save(filepath.Join(*out, "results")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run records: the result plus the facts
// needed to interpret and reproduce it.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostFacts          `json:"host"`
	Params    map[string]any     `json:"params"`
	Rounds    roundCounts        `json:"rounds"`
	Gate      gate               `json:"gate"`
	SelfTimes []selfRow          `json:"self_times,omitempty"`
	Phases    map[string]float64 `json:"phase_seconds"`
	SetupS    []float64          `json:"setup_seconds"`
	Order     []string           `json:"metric_order"`
	Result    result             `json:"result"`
}

type roundCounts struct {
	Warmup   int `json:"warmup"`
	Measured int `json:"measured"`
	Traced   int `json:"traced"`
}

// selfRow is one line of the traced run's self-time table.
type selfRow struct {
	Layer  string  `json:"layer"`
	MsPer  float64 `json:"ms_per_round"`
	Share  float64 `json:"share"`
	Detail string  `json:"detail"`
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.Result.Metrics[name]; !ok {
		r.Order = append(r.Order, name)
	}
	r.Result.Metrics[name] = metric{Value: v, Unit: unit}
}

// loopStats accumulates what the measured loop observes.
type loopStats struct {
	lat                  []time.Duration // every measured round
	tracedN, untracedN   int
	tracedT, untracedT   time.Duration
	traced               fl.RoundReport // summed over traced rounds
	timings              fl.PhaseTimings
	trainedSamples       int
	saturations          int
	unavailable          int
	self                 []int64 // per self-time row, summed over traced rounds
	wallNs               int64   // Σ traced round wall, same clock as self
	background           int64   // device busy time outside the blocking path
	walBytes             int64
	liveHeap             uint64        // HeapAlloc after forced GCs at heapRounds
	paused               time.Duration // loop time spent on that GC, not measured
	allocB, allocs, gcs  uint64
	pauseNs              uint64
	attempted, failedOps int64
}

func runWorkload(w workload, seed int64, dur time.Duration, traced bool, out string) (*report, error) {
	phases := map[string]float64{}
	mark := time.Now()
	phase := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	ds := makeDataset(w, seed)
	cfg := flConfig(w, ds, seed)
	scratch, err := filepath.Abs(filepath.Join(out, "scratch", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	rep := &report{
		Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Traced: traced,
		Params: params(w, cfg), Phases: phases,
		Result: result{Metrics: map[string]metric{}},
	}

	var tr *tracer
	reps := setupReps
	if traced {
		tr, reps = newTracer(), 1
	}
	var d *deployment
	var setupS []float64
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // keep a collection of the last setup's garbage out of the timing
		t0 := time.Now()
		d, err = setup(w, cfg, dir, tr)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer d.close()
	rep.Host = collectHost(w, filepath.Join(scratch, fmt.Sprintf("setup%d", reps-1)))
	phase("dataset+setup")

	t := d.trainer
	for i := 0; i < warmupRounds; i++ {
		if _, err := t.RunRound(); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", i, err)
		}
		t.StageNext()
	}

	phase("warmup")
	ls := &loopStats{}
	ssd0, sdk0 := d.ssdStats(), d.sdkStats()
	start := time.Now()
	loopErr := measure(d, tr, w, dur, ls)
	elapsed := time.Since(start) - ls.paused
	if tr != nil {
		tr.on.Store(false)
	}
	ssd1, sdk1 := d.ssdStats(), d.sdkStats()
	n := len(ls.lat)
	rep.Rounds = roundCounts{Warmup: warmupRounds, Measured: n, Traced: ls.tracedN}

	if n < heapRounds {
		ls.liveHeap = liveHeap()
	}

	// SDK calls count as operations next to rounds: logical calls are
	// attempts minus retries.
	calls := int64(sdk1.Requests-sdk0.Requests) - int64(sdk1.Retries-sdk0.Retries)
	rep.Result.Attempted = ls.attempted + calls
	rep.Result.Failed = ls.failedOps + int64(sdk1.Failures-sdk0.Failures)

	phase("loop")
	// The model is frozen now. The reference replay and the pinned check
	// run beside the read-back of the trained model; none of it is timed.
	rounds := warmupRounds + n
	// AUC is taken from the reference after a fixed aucRounds rounds, so
	// model quality is not coupled to how many rounds a run fits in.
	aucAt := aucRounds
	if traced {
		aucAt = 0
	}
	var ref, pinned uint64
	var auc float64
	var refErr, pinErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ref, auc, refErr = reference(cfg, rounds, aucAt) }()
	go func() { defer wg.Done(); pinned, pinErr = cachedPin(w, out) }()
	fp, fpErr := t.Fingerprint()
	wg.Wait()
	if err := d.close(); err != nil && loopErr == nil {
		loopErr = err
	}
	phase("gate")
	rep.Gate = checkModel(w, ls, rounds, fp, ref, pinned, errors.Join(loopErr, fpErr, refErr, pinErr))

	if !traced {
		lat := make([]float64, n)
		for i, l := range ls.lat {
			lat[i] = float64(l) / float64(time.Millisecond)
		}
		sort.Float64s(lat)
		rep.set("rounds_per_s", float64(n)/elapsed.Seconds(), "1/s")
		rep.set("round_ms_p50", quantile(lat, 0.5), "ms")
		rep.set("round_ms_p90", quantile(lat, 0.9), "ms")
		rep.set("setup_s", median(setupS), "s")
		rep.SetupS = setupS
		rep.set("live_heap_mb", float64(ls.liveHeap)/(1<<20), "MB")
		rep.set("ssd_write_kb_per_round", float64(ssd1.BytesWritten-ssd0.BytesWritten)/1024/float64(max(n, 1)), "KB")
		rep.set("auc", auc, "auc")
	} else {
		layerMetrics(rep, w, tr, ls, sdk1, sdk0)
	}
	rep.Result.Correct = rep.Gate.OK && rep.Result.Failed == 0
	return rep, nil
}

// measure runs the closed loop for dur. In a traced run, blocks of
// blockRounds rounds alternate between untraced and traced, starting
// untraced, and every traced round is split into per-layer self times.
func measure(d *deployment, tr *tracer, w workload, dur time.Duration, ls *loopStats) error {
	t := d.trainer
	chain := chainOf(w)
	ls.self = make([]int64, len(chain)+1)
	var mem0, mem1 runtime.MemStats
	on := false
	deadline := time.Now().Add(dur)
	for i, more := 0, true; more; i++ {
		if tr != nil && i%blockRounds == 0 {
			runtime.ReadMemStats(&mem1)
			if i > 0 && !on {
				ls.allocB += mem1.TotalAlloc - mem0.TotalAlloc
				ls.allocs += mem1.Mallocs - mem0.Mallocs
				ls.gcs += uint64(mem1.NumGC - mem0.NumGC)
				ls.pauseNs += mem1.PauseTotalNs - mem0.PauseTotalNs
			}
			mem0 = mem1
			on = (i/blockRounds)%2 == 1
			tr.on.Store(on)
		}
		var wal0 int64
		if on {
			wal0 = fileSize(d.walPath)
		}
		r0 := time.Now()
		ls.attempted++
		rr, err := t.RunRound()
		// The heap is read between a round and the staging of the next,
		// when no background work holds buffers; the clock stops for it.
		var pause time.Duration
		if err == nil && tr == nil && len(ls.lat)+1 == heapRounds {
			p0 := time.Now()
			ls.liveHeap = liveHeap()
			pause = time.Since(p0)
			ls.paused += pause
			deadline = deadline.Add(pause)
		}
		// Stage the next round only if there is one: a staged round left
		// running would overlap the model read-back that follows the loop.
		more = time.Now().Before(deadline)
		if err == nil && more {
			t.StageNext()
		}
		el := time.Since(r0) - pause
		if err != nil {
			ls.failedOps++
			return fmt.Errorf("round %d: %w", i, err)
		}
		ls.lat = append(ls.lat, el)
		ls.saturations += rr.Saturations
		ls.unavailable += rr.UnavailableRows
		if tr == nil {
			continue
		}
		base := tr.spans[0].base
		ivs := make([][]int64, len(chain))
		for j, l := range chain {
			ivs[j] = tr.spans[l].take()
		}
		if !on {
			ls.untracedN++
			ls.untracedT += el
			continue
		}
		ls.tracedN++
		ls.tracedT += el
		ls.walBytes += fileSize(d.walPath) - wal0
		addReport(&ls.traced, rr)
		ls.timings = ls.timings.Add(rr.Timings)
		ls.trainedSamples += rr.TrainedSamples
		r0ns, r1ns := int64(r0.Sub(base)), int64(r0.Add(el).Sub(base))
		self := selfTimes(r0ns, r1ns, ivs)
		for j, s := range self {
			ls.self[j] += s
		}
		ls.wallNs += r1ns - r0ns
		// Device work inside the round window but off its blocking path.
		dev := length(clip([]int64{r0ns, r1ns}, ivs[len(ivs)-1]))
		ls.background += dev - self[len(self)-1]
	}
	return nil
}

// chainOf lists the nested layers a workload's round passes through.
func chainOf(w workload) []layer {
	switch w.deploy {
	case deployHTTP:
		return []layer{layerCtrl, layerClient, layerAPI, layerDevice}
	case deployCluster:
		return []layer{layerCtrl, layerClient, layerAPI, layerMemberCall, layerMember, layerDevice}
	}
	return []layer{layerCtrl, layerDevice}
}

// addReport sums the RoundStats fields the per-layer metrics use.
func addReport(sum *fl.RoundReport, r fl.RoundReport) {
	s, o := &sum.RoundStats, r.RoundStats
	s.K += o.K
	s.KSampled += o.KSampled
	s.Dummy += o.Dummy
	s.Lost += o.Lost
	s.CrossChunkDup += o.CrossChunkDup
	s.UnionWallTime += o.UnionWallTime
	s.ReadWallTime += o.ReadWallTime
	s.FinishWallTime += o.FinishWallTime
	s.PrefetchWallTime += o.PrefetchWallTime
	s.EvictWallTime += o.EvictWallTime
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchWasted += o.PrefetchWasted
	s.UnionTime += o.UnionTime
	s.ReadTime += o.ReadTime
	s.ServeTime += o.ServeTime
	s.AggregateTime += o.AggregateTime
	s.UpdateTime += o.UpdateTime
	sum.UnavailableRows += r.UnavailableRows
	sum.Saturations += r.Saturations
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// liveHeap is the heap left after forced collections. The first
// collection moves sync.Pool contents to the pools' victim caches and the
// second frees them, so the figure does not depend on how many pooled
// buffers the scheduling of the last round happened to leave behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// quantile interpolates linearly between the closest ranks of sorted v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func params(w workload, cfg fl.Config) map[string]any {
	return map[string]any{
		"deployment": w.deploy, "dataset": w.dataset, "rows": numItems, "users": numUsers,
		"dim": cfg.Dim, "epsilon": cfg.Epsilon, "clients_per_round": cfg.ClientsPerRound,
		"max_features": cfg.MaxFeaturesPerClient, "shards": cfg.Shards, "prefetch": cfg.Prefetch,
		"encrypt": cfg.Encrypt, "upload_codec": codecName(cfg.UploadCodec), "storage": w.storage,
		"workers": cfg.Workers, "setup_reps": setupReps, "warmup_rounds": warmupRounds,
		"block_rounds": blockRounds,
	}
}

func codecName(c string) string {
	if c == "" {
		return "legacy"
	}
	return c
}
