package shard

import (
	"errors"
	"fmt"

	"repro/internal/device"
	"repro/internal/tee"
)

// This file is the engine's failure-containment layer: per-shard health
// states (healthy → quarantined → recovered), the trigger that decides
// which errors quarantine a shard instead of failing the round, and the
// checkpoint-section recovery path. A quarantined shard's ORAM state is
// considered suspect (an injected device fault or a TEE auth-tag
// mismatch was observed through its pipeline), so the shard is isolated
// until Recover replays its section from a trusted checkpoint; the
// engine keeps serving rounds over the surviving shards meanwhile.

// ErrShardUnavailable is returned for operations routed to a quarantined
// (or never-begun) shard. It always arrives wrapped with shard index and
// cause; match it with errors.Is.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// DefaultTrigger is the quarantine policy used when Config.Trigger is
// nil: injected device faults and TEE integrity violations quarantine
// the shard; anything else (a programming error, an out-of-range
// address) fails the round loudly.
func DefaultTrigger(err error) bool {
	return errors.Is(err, device.ErrInjected) || errors.Is(err, tee.ErrAuthFailed)
}

// trigger applies the configured (or default) quarantine policy. A
// one-shard engine never quarantines: there is no survivor to degrade
// onto, so its faults fail the round loudly instead.
func (e *Engine) trigger(err error) bool {
	if err == nil || e.cfg.Shards == 1 {
		return false
	}
	if e.cfg.Trigger != nil {
		return e.cfg.Trigger(err)
	}
	return DefaultTrigger(err)
}

// quarantine isolates shard s, recording the first triggering cause.
func (e *Engine) quarantine(s int, cause error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quarantined[s] {
		return
	}
	e.quarantined[s] = true
	e.causes[s] = cause
	e.quarantines++
}

// isQuarantined reports shard s's current quarantine flag.
func (e *Engine) isQuarantined(s int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quarantined[s]
}

// quarantineSnapshot copies the per-shard quarantine flags.
func (e *Engine) quarantineSnapshot() []bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]bool(nil), e.quarantined...)
}

// unavailable builds the wrapped ErrShardUnavailable for shard s,
// carrying the quarantine cause so errors.Is matches both the sentinel
// and (say) device.ErrInjected.
func (e *Engine) unavailable(s int) error {
	e.mu.Lock()
	cause := e.causes[s]
	e.mu.Unlock()
	if cause != nil {
		return fmt.Errorf("shard %d: %w: %w", e.cfg.Base+s, ErrShardUnavailable, cause)
	}
	return fmt.Errorf("shard %d: %w", e.cfg.Base+s, ErrShardUnavailable)
}

// HealthStatus is the engine-level health rollup.
type HealthStatus string

// The three health states /healthz reports.
const (
	StatusHealthy     HealthStatus = "healthy"     // every shard serving
	StatusDegraded    HealthStatus = "degraded"    // some shards quarantined
	StatusUnavailable HealthStatus = "unavailable" // no shard can serve
)

// ShardHealth is one shard's health detail.
type ShardHealth struct {
	Shard       int    `json:"shard"`
	Rows        uint64 `json:"rows"`
	Quarantined bool   `json:"quarantined"`
	// Cause is the first triggering error, empty while healthy.
	Cause string `json:"cause,omitempty"`
}

// HealthReport is the engine's health snapshot plus lifetime counters.
type HealthReport struct {
	Status HealthStatus  `json:"status"`
	Shards []ShardHealth `json:"shards"`
	// Quarantines / Recoveries count lifetime quarantine and recovery
	// events (a shard can cycle through both repeatedly).
	Quarantines uint64 `json:"quarantines"`
	Recoveries  uint64 `json:"recoveries"`
}

// Health reports per-shard quarantine state and the overall rollup.
func (e *Engine) Health() HealthReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := HealthReport{
		Shards:      make([]ShardHealth, e.cfg.Shards),
		Quarantines: e.quarantines,
		Recoveries:  e.recoveries,
	}
	down := 0
	for i := range rep.Shards {
		rep.Shards[i] = ShardHealth{
			Shard:       e.cfg.Base + i,
			Rows:        Rows(e.cfg.NumRows, e.cfg.Shards, i),
			Quarantined: e.quarantined[i],
		}
		if e.causes[i] != nil {
			rep.Shards[i].Cause = e.causes[i].Error()
		}
		if e.quarantined[i] {
			down++
		}
	}
	switch down {
	case 0:
		rep.Status = StatusHealthy
	case e.cfg.Shards:
		rep.Status = StatusUnavailable
	default:
		rep.Status = StatusDegraded
	}
	return rep
}

// Recover restores every quarantined shard from its section of an engine
// snapshot (the newest durable checkpoint) and returns the indices
// recovered. Healthy shards are not touched — only the suspect state is
// replaced — so the survivors keep every round they served since the
// checkpoint, while recovered shards roll back to checkpoint time (the
// documented data-loss window; the FL runner's WAL covers whole-run
// replay, not per-shard deltas). The snapshot's geometry is verified
// before any partition is modified. Recovery requires a quiesced engine
// (no round in flight).
func (e *Engine) Recover(b []byte) ([]int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inRound {
		return nil, ErrRoundOpen
	}
	var idx []int
	for i, q := range e.quarantined {
		if q {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil, nil
	}
	sections, err := e.decode(b)
	if err != nil {
		return nil, fmt.Errorf("shard: recover: %w", err)
	}
	var recovered []int
	for _, i := range idx {
		e.parts[i].Abort()
		if err := e.parts[i].Restore(sections[i]); err != nil {
			return recovered, fmt.Errorf("shard %d: recover: %w", e.cfg.Base+i, err)
		}
		e.quarantined[i] = false
		e.causes[i] = nil
		e.recoveries++
		recovered = append(recovered, e.cfg.Base+i)
	}
	return recovered, nil
}
