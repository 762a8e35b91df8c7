package shard

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/persist"
)

// Engine.Snapshot/Restore serialize every partition as a NAMED section
// of a persist.Checkpoint container (the same CRC-framed format the
// durable checkpoint files use), plus a meta section pinning the shard
// geometry. Restoring a snapshot taken at a different shard count is
// rejected: the per-shard ORAM trees, position maps and RNG streams are
// only meaningful under the exact partition they were written with.
// Sections are named by GLOBAL shard index (Config.Base + local index)
// so a cluster member's sections are interchangeable with the matching
// sections of a single-process engine snapshot.

// engineSnapshotVersion stamps the meta section. Version 2 added the
// Base field for slice engines (cluster members).
const engineSnapshotVersion = 2

// metaSection / SectionName name the container sections.
const metaSection = "shard/meta"

// SectionName returns the checkpoint-section name of shard i.
func SectionName(i int) string { return fmt.Sprintf("shard/%04d", i) }

// ErrRoundOpen is returned by Snapshot when a round is in flight.
var ErrRoundOpen = errors.New("shard: cannot snapshot mid-round")

// EncodeSnapshot builds an engine snapshot container from per-shard
// sections: the meta section pinning the geometry (shards, numRows,
// base), then one section per shard named by GLOBAL index base+i. It is
// exactly what Engine.Snapshot writes, so a cluster coordinator holding
// the sections of every shard assembles the single-process blob.
func EncodeSnapshot(shards int, numRows uint64, base int, sections [][]byte) ([]byte, error) {
	cp := persist.NewCheckpoint()
	var meta persist.Encoder
	meta.U8(engineSnapshotVersion)
	meta.U32(uint32(shards))
	meta.U64(numRows)
	meta.U32(uint32(base))
	cp.Put(metaSection, meta.Finish())
	for i, blob := range sections {
		cp.Put(SectionName(base+i), blob)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot verifies an engine snapshot container against the
// expected geometry and returns its per-shard sections by local index.
// A diverging shard count, row count or slice base is rejected with a
// message naming both sides.
func DecodeSnapshot(b []byte, shards int, numRows uint64, base int) ([][]byte, error) {
	cp, err := persist.DecodeCheckpoint(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("shard: engine snapshot: %w", err)
	}
	meta, ok := cp.Get(metaSection)
	if !ok {
		return nil, fmt.Errorf("shard: engine snapshot has no %q section", metaSection)
	}
	d := persist.NewDecoder(meta)
	version := d.U8()
	gotShards := int(d.U32())
	gotRows := d.U64()
	gotBase := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: engine snapshot meta: %w", err)
	}
	if version != engineSnapshotVersion {
		return nil, fmt.Errorf("shard: unsupported engine snapshot version %d", version)
	}
	if gotShards != shards {
		return nil, fmt.Errorf("shard: snapshot was taken with %d shards, engine is configured with %d — restore requires an identical shard count", gotShards, shards)
	}
	if gotRows != numRows {
		return nil, fmt.Errorf("shard: snapshot covers %d rows, engine is configured with %d", gotRows, numRows)
	}
	if gotBase != base {
		return nil, fmt.Errorf("shard: snapshot covers shard slice [%d,%d), engine serves [%d,%d)",
			gotBase, gotBase+shards, base, base+shards)
	}
	sections := make([][]byte, shards)
	for i := range sections {
		if sections[i], ok = cp.Get(SectionName(base + i)); !ok {
			return nil, fmt.Errorf("shard: engine snapshot has no %q section", SectionName(base+i))
		}
	}
	return sections, nil
}

// decode verifies a snapshot against this engine's geometry.
func (e *Engine) decode(b []byte) ([][]byte, error) {
	return DecodeSnapshot(b, e.cfg.Shards, e.cfg.NumRows, e.cfg.Base)
}

// Snapshot serializes the engine geometry and every partition.
func (e *Engine) Snapshot() ([]byte, error) {
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return nil, ErrRoundOpen
	}
	e.mu.Unlock()

	sections := make([][]byte, len(e.parts))
	for i, p := range e.parts {
		blob, err := p.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", e.cfg.Base+i, err)
		}
		sections[i] = blob
	}
	return EncodeSnapshot(e.cfg.Shards, e.cfg.NumRows, e.cfg.Base, sections)
}

// Restore replaces every partition's state from a snapshot taken by an
// engine with identical geometry. A diverging shard count or row count
// is rejected before any partition is touched.
func (e *Engine) Restore(b []byte) error {
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return ErrRoundOpen
	}
	e.mu.Unlock()

	sections, err := e.decode(b)
	if err != nil {
		return err
	}
	for i, p := range e.parts {
		if err := p.Restore(sections[i]); err != nil {
			return fmt.Errorf("shard %d: %w", e.cfg.Base+i, err)
		}
	}
	return nil
}

// SnapshotShard serializes one partition, addressed by GLOBAL shard
// index. The blob is exactly the section SnapshotShard's shard would
// occupy in a full engine snapshot, so it can be replayed by
// RestoreShard on any engine (or slice engine) that owns the shard.
func (e *Engine) SnapshotShard(global int) ([]byte, error) {
	local := global - e.cfg.Base
	if local < 0 || local >= e.cfg.Shards {
		return nil, fmt.Errorf("shard: shard %d outside engine slice [%d,%d)",
			global, e.cfg.Base, e.cfg.Base+e.cfg.Shards)
	}
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return nil, ErrRoundOpen
	}
	e.mu.Unlock()
	blob, err := e.parts[local].Snapshot()
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", global, err)
	}
	return blob, nil
}

// RestoreShard replays one shard's section, addressed by GLOBAL shard
// index, onto a quiesced engine. The partition's half-open round state
// (if any) is aborted first; if the shard was quarantined it is
// returned to service and counted as a recovery. This is the migration
// primitive: export a section from wherever the shard last lived and
// replay it onto the engine that owns the shard now.
func (e *Engine) RestoreShard(global int, blob []byte) error {
	local := global - e.cfg.Base
	if local < 0 || local >= e.cfg.Shards {
		return fmt.Errorf("shard: shard %d outside engine slice [%d,%d)",
			global, e.cfg.Base, e.cfg.Base+e.cfg.Shards)
	}
	e.mu.Lock()
	if e.inRound {
		e.mu.Unlock()
		return ErrRoundOpen
	}
	e.mu.Unlock()
	e.parts[local].Abort()
	if err := e.parts[local].Restore(blob); err != nil {
		return fmt.Errorf("shard %d: %w", global, err)
	}
	e.mu.Lock()
	if e.quarantined[local] {
		e.quarantined[local] = false
		e.causes[local] = nil
		e.recoveries++
	}
	e.mu.Unlock()
	return nil
}
