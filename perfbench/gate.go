package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/fl"
	"repro/internal/storage"
)

// The correctness gate. A run is correct when
//
//   - every round and SDK call succeeded,
//   - the final model — the MLP plus every embedding row, read through
//     the serving controllers' PeekRow in process — is bit-identical to
//     an untimed in-process reference trained for the same number of
//     rounds from the same fl.Config with Workers = 1, prefetch off and
//     simulated storage,
//   - no upload saturated the secagg fixed point and no row was
//     unavailable,
//   - the pinned-seed reference still produces the fingerprint recorded
//     in pins.json, so a change to the model itself fails the benchmark,
//   - and, in a traced run, the self times add up to the round wall time
//     within selfTolerance.
//
// The gate compares models, not snapshot bytes: divergence confined to
// controller-internal state (device images, RNG positions) that leaves
// the model unchanged is not caught here.

// pinSeed and pinRounds define the pinned reference runs.
const (
	pinSeed   = 1
	pinRounds = 3
)

//go:embed pins.json
var pinsJSON []byte

type gate struct {
	OK          bool   `json:"ok"`
	Fingerprint string `json:"fingerprint"`
	Reference   string `json:"reference"`
	Rounds      int    `json:"rounds"`
	Pinned      string `json:"pinned"`
	PinnedWant  string `json:"pinned_want"`
	Saturations int    `json:"saturations"`
	Unavailable int    `json:"unavailable_rows"`
	SelfError   string `json:"self_time_error,omitempty"`
	Err         string `json:"error,omitempty"`
}

func hex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// reference trains cfg in process under the reference settings and
// returns the model fingerprint after rounds rounds. With aucRounds > 0
// it also returns the model's AUC after aucRounds rounds, training on
// past rounds if needed.
func reference(cfg fl.Config, rounds, aucRounds int) (fp uint64, auc float64, err error) {
	cfg.Workers, cfg.Prefetch = 1, false
	cfg.Storage, cfg.WrapDevice = storage.Spec{}, nil
	t, err := fl.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer t.Close()
	for i := 1; i <= max(rounds, aucRounds); i++ {
		if _, err := t.RunRound(); err != nil {
			return 0, 0, fmt.Errorf("reference round %d: %w", i, err)
		}
		if i == rounds {
			if fp, err = t.Fingerprint(); err != nil {
				return 0, 0, err
			}
		}
		if i == aucRounds {
			if auc, err = t.EvaluateAUC(); err != nil {
				return 0, 0, err
			}
		}
	}
	return fp, auc, nil
}

// pinnedFingerprint trains workload w's pinned reference.
func pinnedFingerprint(w workload) (uint64, error) {
	fp, _, err := reference(flConfig(w, makeDataset(w, pinSeed), pinSeed), pinRounds, 0)
	return fp, err
}

// cachedPin returns pinnedFingerprint(w), computing it once per build:
// the result depends only on the benchmark binary, whose hash keys a
// cache file under out. Every run still compares it with pins.json.
func cachedPin(w workload, out string) (uint64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return 0, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return 0, err
	}
	path := filepath.Join(out, "pins", fmt.Sprintf("%s-%x", w.name, h.Sum(nil)[:8]))
	if b, err := os.ReadFile(path); err == nil {
		if fp, err := strconv.ParseUint(strings.TrimSpace(string(b)), 16, 64); err == nil {
			return fp, nil
		}
	}
	fp, err := pinnedFingerprint(w)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	return fp, os.WriteFile(path, []byte(hex(fp)+"\n"), 0o644)
}

func loadPins() (map[string]string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// checkModel applies the gate to a run that trained rounds rounds
// (warm-up included) to fingerprint fp; ref and pinned are the reference
// and pinned fingerprints, runErr any error the run or the checks hit.
func checkModel(w workload, ls *loopStats, rounds int, fp, ref, pinned uint64, runErr error) gate {
	g := gate{
		Fingerprint: hex(fp), Reference: hex(ref), Rounds: rounds, Pinned: hex(pinned),
		Saturations: ls.saturations, Unavailable: ls.unavailable,
	}
	pins, err := loadPins()
	if err := errors.Join(runErr, err); err != nil {
		g.Err = err.Error()
		return g
	}
	g.PinnedWant = pins[w.name]
	if ls.tracedN > 0 {
		total := int64(0)
		for _, s := range ls.self {
			total += s
		}
		if e := float64(total-ls.wallNs) / float64(max(ls.wallNs, 1)); e > selfTolerance || e < -selfTolerance {
			g.SelfError = fmt.Sprintf("self times sum to %d ns of %d ns round wall", total, ls.wallNs)
		}
	}
	g.OK = ref == fp && g.Pinned == g.PinnedWant &&
		g.Saturations == 0 && g.Unavailable == 0 && g.SelfError == ""
	return g
}

// printPins prints the pinned fingerprints of every workload in the
// pins.json format.
func printPins() int {
	pins := map[string]string{}
	for _, w := range workloads {
		fp, err := pinnedFingerprint(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pin %s: %v\n", w.name, err)
			return 1
		}
		pins[w.name] = hex(fp)
	}
	b, _ := json.MarshalIndent(pins, "", "  ")
	fmt.Println(string(b))
	return 0
}
