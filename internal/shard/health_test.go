package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/tee"
)

// injectedErr mimics a wrapped device fault surfacing through an ORAM
// call stack, as the fault injector produces.
var injectedErr = fmt.Errorf("raworam: fetch bucket: %w", device.ErrInjected)

func requests(rows ...uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, r := range rows {
		out[i] = []uint64{r}
	}
	return out
}

func TestDefaultTrigger(t *testing.T) {
	if !DefaultTrigger(injectedErr) {
		t.Error("wrapped ErrInjected not a trigger")
	}
	if !DefaultTrigger(fmt.Errorf("open bucket: %w", tee.ErrAuthFailed)) {
		t.Error("wrapped ErrAuthFailed not a trigger")
	}
	if DefaultTrigger(errors.New("logic bug")) {
		t.Error("arbitrary error treated as a trigger")
	}
	if DefaultTrigger(nil) {
		t.Error("nil error treated as a trigger")
	}
}

// TestOneShardEngineNeverQuarantines: with no survivor to degrade onto,
// a one-shard engine fails trigger errors loudly — at begin and mid-round
// — and keeps reporting one healthy shard.
func TestOneShardEngineNeverQuarantines(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 1, 0)
	fakes[0].beginErr = injectedErr
	if _, err := e.BeginRound(requests(10)); !errors.Is(err, device.ErrInjected) || errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("begin err = %v, want the injected fault itself", err)
	}
	fakes[0].beginErr = nil
	fakes[0].failOn("serve", injectedErr)
	r, err := e.BeginRound(requests(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ServeEntry(10); !errors.Is(err, device.ErrInjected) || errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("serve err = %v, want the injected fault itself", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if rep := e.Health(); rep.Status != StatusHealthy || rep.Quarantines != 0 || len(rep.Shards) != 1 || rep.Shards[0].Quarantined {
		t.Fatalf("health = %+v, want one healthy shard", rep)
	}
}

// TestBeginRoundQuarantinesTriggerShard: a shard whose BeginRound fails
// with a quarantine-trigger error is isolated, the round proceeds over
// the survivors, and operations routed to it get ErrShardUnavailable.
func TestBeginRoundQuarantinesTriggerShard(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 4, 2)
	fakes[1].beginErr = injectedErr
	r, err := e.BeginRound(requests(10, 30, 60, 90))
	if err != nil {
		t.Fatalf("degraded BeginRound failed: %v", err)
	}
	rep := e.Health()
	if rep.Status != StatusDegraded || rep.Quarantines != 1 {
		t.Fatalf("health = %+v, want degraded with 1 quarantine", rep)
	}
	if !rep.Shards[1].Quarantined || rep.Shards[1].Cause == "" {
		t.Errorf("shard 1 health = %+v", rep.Shards[1])
	}
	// Shard 1 owns rows [25, 50): serving one must fail typed.
	_, _, err = r.ServeEntry(30)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("serve on quarantined shard: err = %v", err)
	}
	if !errors.Is(err, device.ErrInjected) {
		t.Errorf("unavailable error lost its cause: %v", err)
	}
	if _, err := r.SubmitGradient(30, []float32{1}, 1); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("submit on quarantined shard: err = %v", err)
	}
	// Rows on live shards keep serving.
	if _, ok, err := r.ServeEntry(10); err != nil || !ok {
		t.Fatalf("live-shard serve: ok=%v err=%v", ok, err)
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatalf("degraded Finish failed: %v", err)
	}
	if st.QuarantinedShards != 1 || !st.PerShard[1].Quarantined {
		t.Errorf("stats = QuarantinedShards %d, PerShard[1].Quarantined %v",
			st.QuarantinedShards, st.PerShard[1].Quarantined)
	}
	if fakes[1].aborts == 0 {
		t.Error("quarantined shard's partition was never aborted")
	}
	// The next round simply skips the quarantined shard.
	r2, err := e.BeginRound(requests(10, 60))
	if err != nil {
		t.Fatalf("second degraded round: %v", err)
	}
	if len(fakes[1].rounds) != 0 {
		t.Error("quarantined shard began a round")
	}
	if _, err := r2.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginRoundFatalErrorStillFails: non-trigger errors fail the round
// exactly as before the health layer existed.
func TestBeginRoundFatalErrorStillFails(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 2)
	boom := errors.New("logic bug")
	fakes[0].beginErr = boom
	if _, err := e.BeginRound(requests(10, 90)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fatal error", err)
	}
	if rep := e.Health(); rep.Status != StatusHealthy {
		t.Errorf("fatal error changed health to %v", rep.Status)
	}
}

// TestServeQuarantinesMidRound: a trigger error during ServeEntry
// quarantines the owning shard mid-round; Finish drops its stats and
// aborts it, and the round still completes.
func TestServeQuarantinesMidRound(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 1)
	r, err := e.BeginRound(requests(10, 90))
	if err != nil {
		t.Fatal(err)
	}
	fakes[1].failOn("serve", injectedErr)
	if _, _, err := r.ServeEntry(90); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if rep := e.Health(); rep.Status != StatusDegraded {
		t.Fatalf("health = %v mid-round", rep.Status)
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatalf("Finish after mid-round quarantine: %v", err)
	}
	if st.QuarantinedShards != 1 {
		t.Errorf("QuarantinedShards = %d", st.QuarantinedShards)
	}
	if fakes[1].aborts == 0 {
		t.Error("mid-round-quarantined shard not aborted at Finish")
	}
	if fr := fakes[1].rounds[0]; fr.finished {
		t.Error("quarantined shard's Finish (write-back) ran anyway")
	}
}

// TestFinishQuarantinesTriggerShard: a trigger error during a shard's
// write-back quarantines it; that shard's round updates are lost but the
// round succeeds over the survivors.
func TestFinishQuarantinesTriggerShard(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 2)
	r, err := e.BeginRound(requests(10, 90))
	if err != nil {
		t.Fatal(err)
	}
	fakes[0].failOn("finish", fmt.Errorf("writeback: %w", tee.ErrAuthFailed))
	st, err := r.Finish()
	if err != nil {
		t.Fatalf("Finish = %v, want degraded success", err)
	}
	if st.QuarantinedShards != 1 || !st.PerShard[0].Quarantined {
		t.Errorf("stats = %+v", st)
	}
	if rep := e.Health(); rep.Status != StatusDegraded || !rep.Shards[0].Quarantined {
		t.Errorf("health = %+v", rep)
	}
}

// TestAllShardsQuarantinedUnavailable: with every shard quarantined the
// engine reports unavailable and refuses rounds with the typed error.
func TestAllShardsQuarantinedUnavailable(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 1)
	fakes[0].beginErr = injectedErr
	fakes[1].beginErr = injectedErr
	if _, err := e.BeginRound(requests(10, 90)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if rep := e.Health(); rep.Status != StatusUnavailable || rep.Quarantines != 2 {
		t.Fatalf("health = %+v", rep)
	}
	// The engine is NOT left in-round: a later recovery can proceed.
	if _, err := e.BeginRound(requests(10)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("second begin: %v (want unavailable, not in-progress)", err)
	}
}

// TestRecoverRestoresQuarantinedSection: Recover replays ONLY the
// quarantined shard's checkpoint section, aborts its half-open state,
// clears the quarantine and bumps the recovery counter; healthy shards
// are untouched.
func TestRecoverRestoresQuarantinedSection(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 3, 1)
	for i, f := range fakes {
		f.state = []byte{byte('A' + i)}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Diverge all shards' live state past the checkpoint.
	for i, f := range fakes {
		f.state = []byte{byte('X' + i)}
	}
	// Quarantine shard 1 via a begin-time trigger fault.
	fakes[1].beginErr = injectedErr
	r, err := e.BeginRound(requests(10, 50, 90))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	abortsBefore := fakes[1].aborts
	recovered, err := e.Recover(snap)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Fatalf("recovered = %v, want [1]", recovered)
	}
	if fakes[1].aborts <= abortsBefore {
		t.Error("Recover did not abort the quarantined partition")
	}
	if string(fakes[1].state) != "B" {
		t.Errorf("shard 1 state = %q, want checkpoint section %q", fakes[1].state, "B")
	}
	// Healthy shards keep their post-checkpoint state.
	if string(fakes[0].state) != "X" || string(fakes[2].state) != "Z" {
		t.Errorf("healthy shards touched: %q %q", fakes[0].state, fakes[2].state)
	}
	rep := e.Health()
	if rep.Status != StatusHealthy || rep.Recoveries != 1 || rep.Quarantines != 1 {
		t.Fatalf("post-recovery health = %+v", rep)
	}
	// The shard serves again.
	fakes[1].beginErr = nil
	r2, err := e.BeginRound(requests(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r2.ServeEntry(50); err != nil || !ok {
		t.Fatalf("recovered shard serve: ok=%v err=%v", ok, err)
	}
	if _, err := r2.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverGuards: no-op with nothing quarantined, refuses mid-round
// and on geometry mismatch.
func TestRecoverGuards(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 1)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := e.Recover(snap); err != nil || rec != nil {
		t.Fatalf("healthy Recover = %v, %v; want nil, nil", rec, err)
	}
	fakes[0].failOn("serve", injectedErr)
	r, err := e.BeginRound(requests(10, 90))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _ = r.ServeEntry(10) // quarantine shard 0 mid-round
	if _, err := e.Recover(snap); !errors.Is(err, ErrRoundOpen) {
		t.Fatalf("mid-round Recover = %v, want ErrRoundOpen", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	// Mismatched geometry: snapshot from a 3-shard engine.
	other, _ := newFakeEngine(t, 100, 3, 1)
	otherSnap, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(otherSnap); err == nil {
		t.Fatal("Recover accepted a snapshot with foreign geometry")
	}
	// The matching snapshot still works.
	if rec, err := e.Recover(snap); err != nil || len(rec) != 1 {
		t.Fatalf("Recover = %v, %v", rec, err)
	}
}

// TestCustomTrigger: Config.Trigger overrides the default policy.
func TestCustomTrigger(t *testing.T) {
	custom := errors.New("custom fault class")
	parts := make([]Partition, 2)
	fakes := make([]*fakePart, 2)
	for i := range parts {
		fakes[i] = &fakePart{id: i}
		parts[i] = fakes[i]
	}
	e, err := NewEngine(Config{
		Shards: 2, NumRows: 100, Workers: 1, Dummy: testDummy,
		Trigger: func(err error) bool { return errors.Is(err, custom) },
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	fakes[0].beginErr = fmt.Errorf("wrapped: %w", custom)
	if _, err := e.BeginRound(requests(10, 90)); err != nil {
		t.Fatalf("custom trigger not honored: %v", err)
	}
	if rep := e.Health(); !rep.Shards[0].Quarantined {
		t.Error("custom trigger did not quarantine")
	}
}
