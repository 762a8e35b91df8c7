package fedora

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/persist"
	"repro/internal/shard"
)

// Snapshot format. Every controller writes one envelope: a version
// byte (2), the shard count, the config digest, the round counter, and
// the shard.Engine container — a meta section pinning the geometry plus
// one section per shard, named by GLOBAL shard index. A section is one
// partition's snapshot, which glues every component snapshot into one
// blob: both RNG sources, the selector's cross-round metadata, the FDP
// accountant, the TEE scratchpad and engine counters, the main ORAM
// (backend-tagged), the buffer ORAM, and both simulated devices (whose
// page stores hold the actual tree bytes). Snapshots are only taken
// between rounds — BeginRound..Finish state is deliberately not
// serializable; recovery re-executes the interrupted round from the WAL.
//
// Before the one-shard controller ran as a one-partition engine, it
// wrote its partition section bare, tagged version 1. Byte for byte that
// blob IS the section, so a one-shard controller still restores it
// (decode only) as its shard's section.

const (
	// sectionSnapshotVersion tags a partition section (and the bare
	// one-shard snapshots of the earlier format).
	sectionSnapshotVersion = 1
	// controllerSnapshotVersion tags the envelope every controller writes.
	controllerSnapshotVersion = 2
)

// ErrRoundOpen is returned by Snapshot when a round is in flight.
var ErrRoundOpen = errors.New("fedora: cannot snapshot mid-round")

// ConfigDigest fingerprints the semantically relevant Config fields. A
// snapshot only restores into a controller with an identical digest —
// geometry, privacy parameters, and seeds must all match for replay to
// be meaningful.
func (c *Controller) ConfigDigest() uint64 { return c.cfg.Digest() }

// Digest fingerprints the semantically relevant Config fields without
// building a controller. The cluster coordinator uses it to stamp and
// verify assembled checkpoints for the GLOBAL config while only member
// controllers (built from slices of it) actually exist.
func (cfg Config) Digest() uint64 {
	var e persist.Encoder
	e.U8(uint8(cfg.Backend))
	e.U64(cfg.NumRows)
	e.U32(uint32(cfg.Dim))
	e.U64(math.Float64bits(cfg.Epsilon))
	e.Bool(cfg.HideCount)
	e.U32(uint32(cfg.ChunkSize))
	e.U32(uint32(cfg.MaxClientsPerRound))
	e.U32(uint32(cfg.MaxFeaturesPerClient))
	e.U32(math.Float32bits(cfg.LearningRate))
	e.I64(cfg.Seed)
	e.Bool(cfg.Phantom)
	e.Bool(cfg.Encrypt)
	e.Bool(cfg.HasScratchpad)
	e.U32(uint32(cfg.BucketBytes))
	e.U8(uint8(cfg.Selection))
	e.U32(uint32(cfg.EvictPeriod))
	e.Bool(cfg.SortedUnion)
	// ShardWorkers, ShardBase, Storage and Prefetch are deliberately
	// excluded: the worker count and the storage backend are purely
	// operational knobs that never affect state — a checkpoint taken over
	// the simulator restores onto a file-backed controller and vice versa
	// — and slice placement is pinned by the engine snapshot's base field
	// (plus the shard-derived Seed for one-shard members), so per-shard
	// sections stay portable between a single-process run and any member.
	// Prefetch only reorders wall-clock execution (Snapshot drains any
	// deferred write-back pass first), so snapshots move freely between a
	// prefetching and a synchronous run of the same config.
	e.U32(uint32(cfg.Shards))
	h := fnv.New64a()
	h.Write(e.Finish())
	return h.Sum64()
}

// Snapshot serializes the controller's full dynamic state. It fails with
// ErrRoundOpen if called between BeginRound and Finish.
func (c *Controller) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inRound || c.staged != nil {
		// A staged round counts as open: its plan has consumed RNG state a
		// snapshot would otherwise capture mid-consumption.
		return nil, ErrRoundOpen
	}
	blob, err := c.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	return c.cfg.envelope(c.round, blob), nil
}

// Restore replaces the controller's dynamic state with a snapshot taken
// from a controller built with an identical Config. A one-shard
// controller also accepts the earlier bare-section format.
func (c *Controller) Restore(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inRound || c.staged != nil {
		return ErrRoundOpen
	}
	round, engBlob, err := c.cfg.openEnvelope(b)
	if err != nil {
		return err
	}
	if err := c.eng.Restore(engBlob); err != nil {
		return err
	}
	c.round = round
	return nil
}

// RecoverQuarantined restores every quarantined shard from its section
// of a controller snapshot (the newest durable checkpoint) and returns
// the shard indices recovered. Healthy shards — and the controller round
// counter, which tracks the rounds the survivors kept serving — are
// untouched: only the quarantined shards' state is replaced, rolling
// them back to checkpoint time (the bounded data-loss window
// ARCHITECTURE.md's degradation matrix documents). It requires a
// quiesced controller and a snapshot with matching geometry and config
// digest, and returns (nil, nil) when nothing is quarantined — always
// on a one-shard controller, which never quarantines.
func (c *Controller) RecoverQuarantined(b []byte) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inRound || c.staged != nil {
		return nil, ErrRoundOpen
	}
	// The snapshot round is NOT restored: survivors advanced past it.
	_, engBlob, err := c.cfg.openEnvelope(b)
	if err != nil {
		return nil, fmt.Errorf("fedora: recover: %w", err)
	}
	return c.eng.Recover(engBlob)
}

// envelope wraps an engine container in the controller snapshot header.
func (cfg *Config) envelope(round uint64, engBlob []byte) []byte {
	var e persist.Encoder
	e.U8(controllerSnapshotVersion)
	e.U32(uint32(cfg.shardCount()))
	e.U64(cfg.Digest())
	e.U64(round)
	e.Bytes(engBlob)
	return e.Finish()
}

// openEnvelope verifies a controller snapshot's header against cfg and
// returns its round and engine container. The shard count is checked
// before the digest so a mismatched partitioning gets the specific
// error, not the generic one. A bare version-1 section is accepted when
// cfg has one shard and wrapped as that shard's container.
func (cfg *Config) openEnvelope(b []byte) (round uint64, engBlob []byte, err error) {
	n := cfg.shardCount()
	d := persist.NewDecoder(b)
	v := d.U8()
	switch {
	case d.Err() == nil && v == sectionSnapshotVersion && n == 1:
		if digest := d.U64(); d.Err() == nil && digest != cfg.Digest() {
			return 0, nil, fmt.Errorf("fedora: snapshot config digest %016x != controller %016x (configs differ)", digest, cfg.Digest())
		}
		round = d.U64()
		if err := d.Err(); err != nil {
			return 0, nil, fmt.Errorf("fedora: controller snapshot: %w", err)
		}
		engBlob, err = shard.EncodeSnapshot(1, cfg.NumRows, cfg.ShardBase, [][]byte{b})
		return round, engBlob, err
	case d.Err() == nil && v == sectionSnapshotVersion:
		return 0, nil, fmt.Errorf("fedora: snapshot was taken with 1 shard, controller is configured with %d — restore requires an identical shard count", n)
	case d.Err() == nil && v != controllerSnapshotVersion:
		return 0, nil, fmt.Errorf("fedora: unsupported controller snapshot version %d", v)
	}
	shards := int(d.U32())
	if d.Err() == nil && shards != n {
		return 0, nil, fmt.Errorf("fedora: snapshot was taken with %d shards, controller is configured with %d — restore requires an identical shard count", shards, n)
	}
	digest := d.U64()
	if d.Err() == nil && digest != cfg.Digest() {
		return 0, nil, fmt.Errorf("fedora: snapshot config digest %016x != controller %016x (configs differ)", digest, cfg.Digest())
	}
	round = d.U64()
	engBlob = d.Bytes()
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("fedora: controller snapshot: %w", err)
	}
	return round, engBlob, nil
}

// AssembleSnapshot builds the snapshot a controller built from cfg
// would write, from its per-shard sections (as SnapshotShard returns
// them, in shard order) and its round counter. A cluster coordinator
// uses it with the GLOBAL config: the assembled blob is byte-identical
// to a single-process controller's, so checkpoints move freely between
// the two.
func AssembleSnapshot(cfg Config, round uint64, sections [][]byte) ([]byte, error) {
	(&cfg).setDefaults()
	if len(sections) != cfg.shardCount() {
		return nil, fmt.Errorf("fedora: %d sections for %d shards", len(sections), cfg.shardCount())
	}
	engBlob, err := shard.EncodeSnapshot(len(sections), cfg.NumRows, cfg.ShardBase, sections)
	if err != nil {
		return nil, err
	}
	return cfg.envelope(round, engBlob), nil
}

// SplitSnapshot is AssembleSnapshot's inverse: it verifies a controller
// snapshot against cfg (shard count, config digest, engine geometry) and
// returns its round counter and per-shard sections in shard order.
func SplitSnapshot(cfg Config, b []byte) (round uint64, sections [][]byte, err error) {
	(&cfg).setDefaults()
	round, engBlob, err := cfg.openEnvelope(b)
	if err != nil {
		return 0, nil, err
	}
	sections, err = shard.DecodeSnapshot(engBlob, cfg.shardCount(), cfg.NumRows, cfg.ShardBase)
	if err != nil {
		return 0, nil, err
	}
	return round, sections, nil
}

// Snapshot implements shard.Partition: the partition's section.
func (p *partition) Snapshot() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inRound {
		return nil, ErrRoundOpen
	}
	// Drain any deferred write-back pass so the snapshot is byte-identical
	// to the one a synchronous run would take at this round boundary.
	if err := p.drainEvictLocked(); err != nil {
		return nil, err
	}

	scratchBlob, err := p.scratch.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fedora: scratchpad: %w", err)
	}
	var engineBlob []byte
	if p.engine != nil {
		engineBlob, err = p.engine.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("fedora: engine: %w", err)
		}
	}
	var mainBlob []byte
	if p.path != nil {
		mainBlob, err = p.path.Snapshot()
	} else {
		mainBlob, err = p.raw.Snapshot()
	}
	if err != nil {
		return nil, fmt.Errorf("fedora: main oram: %w", err)
	}
	bufBlob, err := p.buf.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fedora: buffer oram: %w", err)
	}
	ssdBlob, err := p.ssd.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fedora: ssd device: %w", err)
	}
	dramBlob, err := p.dram.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fedora: dram device: %w", err)
	}

	var e persist.Encoder
	e.U8(sectionSnapshotVersion)
	e.U64(p.cfg.Digest())
	e.U64(p.round)
	e.Bytes(p.src.Snapshot())
	e.Bytes(p.selSrc.Snapshot())
	encodeSelector(&e, p.sel)
	e.Bytes(p.acct.Snapshot())
	e.Bytes(scratchBlob)
	e.Bool(p.engine != nil)
	e.Bytes(engineBlob)
	e.U8(uint8(p.cfg.Backend))
	e.Bytes(mainBlob)
	e.Bytes(bufBlob)
	e.Bytes(ssdBlob)
	e.Bytes(dramBlob)
	return e.Finish(), nil
}

// Restore implements shard.Partition: it replaces the partition's
// dynamic state with a section taken under an identical Config.
func (p *partition) Restore(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inRound {
		return ErrRoundOpen
	}
	p.pending = nil // restored state supersedes any deferred pass
	d := persist.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != sectionSnapshotVersion {
		return fmt.Errorf("fedora: unsupported shard snapshot version %d", v)
	}
	digest := d.U64()
	if d.Err() == nil && digest != p.cfg.Digest() {
		return fmt.Errorf("fedora: snapshot config digest %016x != controller %016x (configs differ)",
			digest, p.cfg.Digest())
	}
	round := d.U64()
	srcBlob := d.Bytes()
	selSrcBlob := d.Bytes()
	requestCount, readBefore, selErr := decodeSelector(d)
	if selErr != nil {
		return selErr
	}
	acctBlob := d.Bytes()
	scratchBlob := d.Bytes()
	hasEngine := d.Bool()
	engineBlob := d.Bytes()
	backend := d.U8()
	mainBlob := d.Bytes()
	bufBlob := d.Bytes()
	ssdBlob := d.Bytes()
	dramBlob := d.Bytes()
	if err := d.Err(); err != nil {
		return fmt.Errorf("fedora: controller snapshot: %w", err)
	}
	if Backend(backend) != p.cfg.Backend {
		return fmt.Errorf("fedora: snapshot backend %v != controller backend %v",
			Backend(backend), p.cfg.Backend)
	}
	if hasEngine != (p.engine != nil) {
		return fmt.Errorf("fedora: snapshot encryption (engine=%v) does not match controller", hasEngine)
	}

	if err := p.src.Restore(srcBlob); err != nil {
		return fmt.Errorf("fedora: rng: %w", err)
	}
	if err := p.selSrc.Restore(selSrcBlob); err != nil {
		return fmt.Errorf("fedora: selector rng: %w", err)
	}
	if err := p.acct.Restore(acctBlob); err != nil {
		return fmt.Errorf("fedora: accountant: %w", err)
	}
	if err := p.scratch.Restore(scratchBlob); err != nil {
		return fmt.Errorf("fedora: scratchpad: %w", err)
	}
	if p.engine != nil {
		if err := p.engine.Restore(engineBlob); err != nil {
			return fmt.Errorf("fedora: engine: %w", err)
		}
	}
	// Devices first (they hold the tree bytes the ORAMs index into),
	// then the ORAM metadata over them.
	if err := p.ssd.Restore(ssdBlob); err != nil {
		return fmt.Errorf("fedora: ssd device: %w", err)
	}
	if err := p.dram.Restore(dramBlob); err != nil {
		return fmt.Errorf("fedora: dram device: %w", err)
	}
	if p.path != nil {
		if err := p.path.Restore(mainBlob); err != nil {
			return fmt.Errorf("fedora: main oram: %w", err)
		}
	} else {
		if err := p.raw.Restore(mainBlob); err != nil {
			return fmt.Errorf("fedora: main oram: %w", err)
		}
	}
	if err := p.buf.Restore(bufBlob); err != nil {
		return fmt.Errorf("fedora: buffer oram: %w", err)
	}
	p.round = round
	p.sel.requestCount = requestCount
	p.sel.readBefore = readBefore
	return nil
}

// encodeSelector writes the selector's cross-round metadata (sorted for
// deterministic encoding). Its RNG is serialized separately as selSrc.
func encodeSelector(e *persist.Encoder, s *selector) {
	ids := make([]uint64, 0, len(s.requestCount))
	for id := range s.requestCount {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		e.U64(id)
		e.U64(s.requestCount[id])
	}
	ids = ids[:0]
	for id := range s.readBefore {
		if s.readBefore[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		e.U64(id)
	}
}

func decodeSelector(d *persist.Decoder) (map[uint64]uint64, map[uint64]bool, error) {
	nReq := d.U64()
	requestCount := make(map[uint64]uint64, nReq)
	for i := uint64(0); i < nReq && d.Err() == nil; i++ {
		id := d.U64()
		requestCount[id] = d.U64()
	}
	nRead := d.U64()
	readBefore := make(map[uint64]bool, nRead)
	for i := uint64(0); i < nRead && d.Err() == nil; i++ {
		readBefore[d.U64()] = true
	}
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("fedora: selector snapshot: %w", err)
	}
	return requestCount, readBefore, nil
}
