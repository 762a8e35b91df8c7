package main

import (
	"testing"
	"time"

	"repro/internal/fl"
)

// counts is the part of a round report that must not depend on
// tracing: every count, no timing.
type counts struct {
	K, KUnion, KSampled, Dummy, Lost, CrossChunkDup, Chunks int
	Hits, Wasted                                            uint64
	Trained, Unavailable, Saturations                       int
}

func countsOf(r fl.RoundReport) counts {
	return counts{
		K: r.K, KUnion: r.KUnion, KSampled: r.KSampled, Dummy: r.Dummy, Lost: r.Lost,
		CrossChunkDup: r.CrossChunkDup, Chunks: r.Chunks,
		Hits: r.PrefetchHits, Wasted: r.PrefetchWasted,
		Trained: r.TrainedSamples, Unavailable: r.UnavailableRows, Saturations: r.Saturations,
	}
}

// train runs pinRounds rounds of workload w at the pinned seed, traced
// when tr is non-nil, and returns the model fingerprint and the
// per-round counts.
func train(t *testing.T, w workload, tr *tracer) (uint64, []counts) {
	t.Helper()
	cfg := flConfig(w, makeDataset(w, pinSeed), pinSeed)
	d, err := setup(w, cfg, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	var cs []counts
	for i := 0; i < pinRounds; i++ {
		rep, err := d.trainer.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if i+1 < pinRounds {
			d.trainer.StageNext()
		}
		cs = append(cs, countsOf(rep))
	}
	if tr != nil {
		tr.on.Store(false)
	}
	fp, err := d.trainer.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp, cs
}

// TestTracingIsTransparent: a traced and an untraced run of every
// workload train the same model, with the same counts in every round,
// and both match the pinned reference fingerprint. The traced run must
// also show that the wrappers forwarded the optional legs the workload
// relies on.
func TestTracingIsTransparent(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plainFP, plain := train(t, w, nil)
			tr := newTracer()
			tr.on.Store(true)
			tracedFP, traced := train(t, w, tr)
			if plainFP != tracedFP {
				t.Fatalf("fingerprint: untraced %s, traced %s", hex(plainFP), hex(tracedFP))
			}
			if hex(plainFP) != pins[w.name] {
				t.Fatalf("fingerprint %s, pinned %s", hex(plainFP), pins[w.name])
			}
			for i := range plain {
				if plain[i] != traced[i] {
					t.Fatalf("round %d counts: untraced %+v, traced %+v", i, plain[i], traced[i])
				}
			}
			var hits uint64
			for _, c := range traced {
				hits += c.Hits
			}
			switch w.name {
			case "http-prefetch":
				if hits == 0 || tr.opNs[opStage].Load() == 0 {
					t.Errorf("no prefetch hits (%d) or no staged round: RoundStager not forwarded", hits)
				}
			case "cluster-durable":
				if tr.uploadBytes.Load() == 0 || tr.client.calls[routeUpload].Load() == 0 {
					t.Error("no wire uploads recorded: WireRound not forwarded")
				}
			}
			if tr.dram.ops.Load() == 0 || tr.opNs[opBegin].Load() == 0 {
				t.Error("device or controller-call seam recorded nothing")
			}
		})
	}
}

// TestRoundStableWhileStaging: the traced in-process orchestrator keeps
// Round() at the begun round while a staged next round begins on a
// controller background goroutine, as fl's own in-process adapter does
// (the trainer derives the secagg session key from it).
func TestRoundStableWhileStaging(t *testing.T) {
	w, _ := findWorkload("inproc-tee")
	cfg := flConfig(w, makeDataset(w, pinSeed), pinSeed)
	cfg.Prefetch = true
	ctrl, err := fl.BuildController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	tr := newTracer()
	tr.on.Store(true)
	orch := tr.orchestrator(newCtrlOrch(ctrl))
	stager, ok := orch.(fl.RoundStager)
	if !ok {
		t.Fatal("traced orchestrator hides StageRound")
	}
	reqs := [][]uint64{{1, 2, 3}, {4, 5}}
	h, err := orch.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	begun := orch.Round()
	if err := stager.StageRound([][]uint64{{6, 7}, {8}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ctrl.Round() == begun; {
		if time.Now().After(deadline) {
			t.Fatal("staged round never began in the background")
		}
		time.Sleep(time.Millisecond)
	}
	if got := orch.Round(); got != begun {
		t.Fatalf("Round() = %d while round %d was staged, want %d", got, ctrl.Round(), begun)
	}
	if _, err := orch.BeginRound([][]uint64{{6, 7}, {8}}); err != nil {
		t.Fatal(err)
	}
	if got := orch.Round(); got != begun+1 {
		t.Fatalf("Round() = %d after the staged begin, want %d", got, begun+1)
	}
}

// TestSelfTimes: nested layers partition the round window exactly, and
// busy time outside a parent's span is not counted.
func TestSelfTimes(t *testing.T) {
	chain := [][]int64{
		{10, 40, 60, 90}, // controller calls
		{5, 15, 20, 30},  // device ops: [5,10) lies outside any call
	}
	got := selfTimes(0, 100, chain)
	want := []int64{40, 45, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
}
