package fedora

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// v1Cfg is the geometry of testdata/s1-v1-round2.snap: a bare version-1
// one-shard snapshot, as one-shard controllers wrote them before every
// controller wrote the shard-engine envelope. The fixture holds the
// state after rounds 0 and 1 of v1Workload.
func v1Cfg() Config {
	return Config{
		NumRows: 98, Dim: 4, Epsilon: 1,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 1, Seed: 42, Encrypt: true,
	}
}

func v1Workload() [][][]uint64 { return randomWorkload(11, 4, 4, 5, 98, 4) }

// v1Round4SHA is the SHA-256 of the version-1 snapshot the same
// controller wrote after rounds 2 and 3 as well.
const v1Round4SHA = "9e5da291e4ebbe19b7d5a55f8ac9d0d4e2eb24f118ec91f4ff4712d751a6fb86"

// TestOneShardSnapshotSectionMatchesV1: a one-shard controller runs
// exactly the pipeline that wrote the version-1 fixture — its shard
// section after the same rounds is the fixture, byte for byte.
func TestOneShardSnapshotSectionMatchesV1(t *testing.T) {
	want, err := os.ReadFile("testdata/s1-v1-round2.snap")
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, v1Cfg())
	w := v1Workload()
	driveRound(t, c, w[0])
	driveRound(t, c, w[1])
	got, err := c.SnapshotShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("one-shard section (%d B) differs from the version-1 fixture (%d B)", len(got), len(want))
	}
}

// TestRestoreV1SnapshotContinuesBitIdentically: a version-1 blob
// restores onto a one-shard controller, which then continues exactly as
// the controller that wrote it did, and its own (version-2) snapshot
// round-trips. A multi-shard controller rejects the blob.
func TestRestoreV1SnapshotContinuesBitIdentically(t *testing.T) {
	blob, err := os.ReadFile("testdata/s1-v1-round2.snap")
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, v1Cfg())
	if err := c.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if c.Round() != 2 {
		t.Fatalf("restored round = %d, want 2", c.Round())
	}
	w := v1Workload()
	driveRound(t, c, w[2])
	driveRound(t, c, w[3])
	section, err := c.SnapshotShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(section); hex.EncodeToString(sum[:]) != v1Round4SHA {
		t.Fatalf("state after resuming from the version-1 snapshot diverged: sha256 %x", sum)
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	again := newController(t, v1Cfg())
	if err := again.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := again.SnapshotShard(0); !bytes.Equal(got, section) {
		t.Fatal("version-2 snapshot did not round-trip the shard section")
	}

	// Replaying the section as a shard migration (how a cluster restores
	// a one-shard member) rewinds the controller round with it, so the
	// member's round agrees with the coordinator's after a restore.
	if err := again.RestoreShard(0, blob); err != nil {
		t.Fatal(err)
	}
	if again.Round() != 2 {
		t.Fatalf("round after RestoreShard = %d, want 2", again.Round())
	}

	two := v1Cfg()
	two.Shards = 2
	if err := newController(t, two).Restore(blob); err == nil || !strings.Contains(err.Error(), "with 2") {
		t.Fatalf("version-1 blob on a 2-shard controller: err = %v", err)
	}
}

// TestBatchOrderDeterminism: batched serves, gradient and aggregate
// uploads apply each shard's rows in request order, so a controller
// driven by large batches ends byte-identical to one driven row by row
// in the same order — whatever the goroutine scheduling.
func TestBatchOrderDeterminism(t *testing.T) {
	cfg := Config{
		NumRows: 400, Dim: 4, Epsilon: 0,
		MaxClientsPerRound: 16, MaxFeaturesPerClient: 32,
		LearningRate: 1, Seed: 5, Shards: 2,
	}
	workload := randomWorkload(3, 3, 16, 32, cfg.NumRows, cfg.Dim)
	grad := func(row uint64) []float32 {
		return []float32{float32(row%5) * 0.5, 1, -0.25, float32(row%3) * 0.125}
	}
	drive := func(batched bool) []byte {
		c := newController(t, cfg)
		for ri, reqs := range workload {
			r, err := c.BeginRound(reqs)
			if err != nil {
				t.Fatal(err)
			}
			var rows []uint64
			for _, rs := range reqs {
				rows = append(rows, rs...)
			}
			if batched {
				if _, err := r.ServeEntries(rows); err != nil {
					t.Fatal(err)
				}
				if ri == 1 {
					// Aggregates must be distinct rows; the first request of
					// each row carries its sum.
					seen := map[uint64]bool{}
					var aggs []RowAggregate
					for _, row := range rows {
						if !seen[row] {
							seen[row] = true
							aggs = append(aggs, RowAggregate{Row: row, Sum: grad(row), Count: 2})
						}
					}
					_, err = r.SubmitAggregates(aggs)
				} else {
					grads := make([]RowGradient, len(rows))
					for i, row := range rows {
						grads[i] = RowGradient{Row: row, Grad: grad(row), Samples: 1}
					}
					_, err = r.SubmitGradients(grads)
				}
				if err != nil {
					t.Fatal(err)
				}
			} else {
				for _, row := range rows {
					if _, _, err := r.ServeEntry(row); err != nil {
						t.Fatal(err)
					}
				}
				seen := map[uint64]bool{}
				for _, row := range rows {
					if ri == 1 {
						if !seen[row] {
							seen[row] = true
							_, err = r.SubmitAggregate(row, grad(row), 2)
						}
					} else {
						_, err = r.SubmitGradient(row, grad(row), 1)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := r.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		b, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := drive(false)
	for i := 0; i < 3; i++ {
		if got := drive(true); !bytes.Equal(got, want) {
			t.Fatalf("batched run %d snapshot differs from the row-by-row run", i)
		}
	}
}
