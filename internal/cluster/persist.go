package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/fedora"
)

// The coordinator's checkpoint story: Snapshot pulls one section per
// GLOBAL shard from the owning members and assembles, through
// fedora.AssembleSnapshot, the EXACT blob a single-process controller
// with the global config would have produced. That byte-identity is
// what makes the whole checkpoint ecosystem composable: a cluster
// checkpoint restores into a single process, a single-process
// checkpoint fans out onto a cluster (fedora.SplitSnapshot), and either
// one feeds RecoverQuarantined — which here means SHARD MIGRATION:
// replaying sections onto a recovered or replacement node.

// Snapshot assembles the cluster-wide checkpoint blob. Every member
// must be live and quiescent (fedora.ErrRoundOpen propagates from a
// member mid-round; coordinator-level open rounds are rejected first).
func (c *Coordinator) Snapshot() ([]byte, error) {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return nil, fedora.ErrRoundOpen
	}
	round := c.round
	c.mu.Unlock()

	sections := make([][]byte, c.shards)
	errs := make([]error, c.shards)
	var wg sync.WaitGroup
	for g := 0; g < c.shards; g++ {
		n := c.nodeOf[g]
		if c.isFenced(n) {
			errs[g] = c.unavailable(n)
			continue
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			blob, err := c.members[n].cli.SnapshotShard(context.Background(), g)
			if err != nil {
				errs[g] = fmt.Errorf("cluster: snapshot shard %d from node %d: %w", g, n, err)
				return
			}
			sections[g] = blob
		}(g, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fedora.AssembleSnapshot(c.norm, round, sections)
}

// Restore fans a checkpoint back out: every shard's section is replayed
// onto its owning member (the admin route force-aborts any orphaned
// member round first), members whose every shard restored are
// unfenced, and the coordinator round counter rewinds to the snapshot.
// Any per-shard failure aborts with an error — a full restore is
// all-or-nothing per member, so a dead node fails the restore rather
// than silently serving stale state.
func (c *Coordinator) Restore(b []byte) error {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return fedora.ErrRoundOpen
	}
	c.mu.Unlock()

	round, sections, err := fedora.SplitSnapshot(c.norm, b)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	errs := make([]error, len(c.members))
	var wg sync.WaitGroup
	for n, m := range c.members {
		wg.Add(1)
		go func(n int, m *member) {
			defer wg.Done()
			for g := m.spec.First; g < m.spec.First+m.spec.Count; g++ {
				if err := m.cli.RestoreShard(context.Background(), g, sections[g]); err != nil {
					errs[n] = fmt.Errorf("cluster: restore shard %d onto node %d: %w", g, n, err)
					return
				}
			}
		}(n, m)
	}
	wg.Wait()
	for n, err := range errs {
		if err == nil {
			c.unfence(n)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.round = round
	c.mu.Unlock()
	return nil
}

// RecoverQuarantined is shard migration: quarantined shards — a fenced
// node's whole slice, or individual shards a live member reports
// quarantined — get their checkpoint sections replayed onto whichever
// node owns them now. Fenced nodes that are still unreachable simply
// stay fenced (a dead process is the expected state here, not an
// error); a REACHABLE node that rejects a replay is an error. Returns
// the GLOBAL indices recovered, (nil, nil) when nothing needed
// recovery — the same contract as fedora.Controller.RecoverQuarantined,
// so the serving layer's auto-recovery drives migration unmodified.
func (c *Coordinator) RecoverQuarantined(b []byte) ([]int, error) {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return nil, fedora.ErrRoundOpen
	}
	c.mu.Unlock()

	_, sections, err := fedora.SplitSnapshot(c.norm, b)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	var (
		mu        sync.Mutex
		recovered []int
		firstErr  error
	)
	c.forEachMember(func(n int) {
		m := c.members[n]
		var targets []int
		if c.isFenced(n) {
			// A fenced node gets its whole slice back — its state is
			// presumed lost with the process.
			for g := m.spec.First; g < m.spec.First+m.spec.Count; g++ {
				targets = append(targets, g)
			}
		} else {
			// A live node recovers only what it reports quarantined.
			hz, err := m.cli.Healthz(context.Background())
			if err != nil {
				c.fence(n, err)
				return
			}
			for _, sh := range hz.Shards {
				if sh.Quarantined {
					targets = append(targets, sh.Shard)
				}
			}
		}
		if len(targets) == 0 {
			return
		}
		wasFenced := c.isFenced(n)
		for _, g := range targets {
			if err := m.cli.RestoreShard(context.Background(), g, sections[g]); err != nil {
				c.recordRecoverErr(n, err, wasFenced, &mu, &firstErr)
				return
			}
			mu.Lock()
			recovered = append(recovered, g)
			mu.Unlock()
		}
		if wasFenced {
			c.unfence(n)
		}
	})
	if firstErr != nil {
		return recovered, firstErr
	}
	if len(recovered) == 0 {
		return nil, nil
	}
	return recovered, nil
}

// recordRecoverErr classifies a replay failure: an *client.APIError in
// the chain means the node is REACHABLE and rejected the replay — a
// real error the caller must see. Anything else is a transport failure:
// the node is (still) dead, which for a fenced node is the expected
// steady state, so it just stays fenced for a later attempt.
func (c *Coordinator) recordRecoverErr(n int, err error, wasFenced bool, mu *sync.Mutex, firstErr *error) {
	var apiErr *client.APIError
	reachable := errors.As(err, &apiErr)
	if !wasFenced || reachable {
		mu.Lock()
		if *firstErr == nil {
			*firstErr = fmt.Errorf("cluster: recover node %d: %w", n, err)
		}
		mu.Unlock()
	}
	c.fence(n, err)
}
