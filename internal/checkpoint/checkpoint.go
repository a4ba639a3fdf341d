// Package checkpoint implements the HPC use case the paper motivates
// for PMem and positions CXL memory to inherit (§1.2): application
// diagnostics and checkpoint/restart (C/R) on a persistent, byte-
// addressable pool. Snapshots are chunked, content-deduplicated against
// the previous snapshot (incremental checkpointing), CRC-protected, and
// published atomically through a pmem transaction — a torn checkpoint
// is never visible after recovery.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"cxlpmem/internal/pmem"
)

// ChunkSize is the dedup granule.
const ChunkSize = 4096

// Layout is the pool layout name for checkpoint pools.
const Layout = "checkpoint-v1"

// directory layout in the root object:
//
//	0:8    magic
//	8:16   slot count (u64)
//	16:    slots, each 24 bytes: {id u64, descOff u64, size u64}
//
// A slot with descOff == 0 is empty. descOff points to a descriptor
// object: [nChunks u64] then per chunk {off u64, crc u32, pad u32}.
const (
	dirMagic   uint64 = 0xC4EC_9012_0001_0001
	slotSize          = 24
	dirHeader         = 16
	descHeader        = 8
	descEntry         = 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MaxSlots is the fixed directory capacity: the root object always has
// room for 64 snapshot slots, so reattaching needs no size negotiation.
const MaxSlots = 64

// Manager owns a checkpoint directory inside a pool. It is not safe
// for concurrent use.
type Manager struct {
	pool  *pmem.Pool
	root  pmem.OID
	slots int
	// lastReused counts chunks deduplicated by the most recent Save.
	lastReused int
	// desc stages Save's descriptor before AllocFrom copies it into
	// the pool. refs holds the entries of the snapshot being saved or
	// deleted, base those of Save's base snapshot. All three are reused
	// from one call to the next.
	desc       []byte
	refs, base []chunkRef
}

const dirRootSize = uint64(dirHeader + MaxSlots*slotSize)

// New initialises a fresh checkpoint directory with the given usable
// slot capacity (at most MaxSlots), or reattaches when one exists with
// the same capacity.
func New(pool *pmem.Pool, slots int) (*Manager, error) {
	if slots <= 0 || slots > MaxSlots {
		return nil, fmt.Errorf("checkpoint: slot count %d outside 1..%d", slots, MaxSlots)
	}
	root, err := pool.Root(dirRootSize)
	if err != nil {
		return nil, err
	}
	b, err := pool.View(root, dirRootSize)
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(b[0:]) == dirMagic {
		if got := int(binary.LittleEndian.Uint64(b[8:])); got != slots {
			return nil, fmt.Errorf("checkpoint: directory has %d slots, requested %d", got, slots)
		}
		return &Manager{pool: pool, root: root, slots: slots}, nil
	}
	// Fresh directory: publish transactionally.
	err = pool.Update(root, 0, dirRootSize, func(v []byte) error {
		for i := range v {
			v[i] = 0
		}
		binary.LittleEndian.PutUint64(v[0:], dirMagic)
		binary.LittleEndian.PutUint64(v[8:], uint64(slots))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Manager{pool: pool, root: root, slots: slots}, nil
}

// Open reattaches to an existing directory, recovering its capacity
// from the on-media header.
func Open(pool *pmem.Pool) (*Manager, error) {
	root, err := pool.Root(dirRootSize)
	if err != nil {
		return nil, err
	}
	magic, err := pool.GetUint64(root, 0)
	if err != nil {
		return nil, err
	}
	if magic != dirMagic {
		return nil, fmt.Errorf("checkpoint: pool has no checkpoint directory")
	}
	stored, err := pool.GetUint64(root, 8)
	if err != nil {
		return nil, err
	}
	if stored == 0 || stored > MaxSlots {
		return nil, fmt.Errorf("checkpoint: directory header corrupt (slots=%d)", stored)
	}
	return &Manager{pool: pool, root: root, slots: int(stored)}, nil
}

// slot returns the 24-byte slot record i.
func (m *Manager) slot(i int) (id, descOff, size uint64, err error) {
	b, err := m.pool.View(m.root, dirRootSize)
	if err != nil {
		return 0, 0, 0, err
	}
	off := dirHeader + i*slotSize
	return binary.LittleEndian.Uint64(b[off:]),
		binary.LittleEndian.Uint64(b[off+8:]),
		binary.LittleEndian.Uint64(b[off+16:]), nil
}

// findSlot returns the slot index holding id, or -1, with the slot's
// descriptor offset and snapshot size.
func (m *Manager) findSlot(id uint64) (int, uint64, uint64, error) {
	for i := 0; i < m.slots; i++ {
		sid, descOff, size, err := m.slot(i)
		if err != nil {
			return -1, 0, 0, err
		}
		if descOff != 0 && sid == id {
			return i, descOff, size, nil
		}
	}
	return -1, 0, 0, nil
}

// freeSlot returns an empty slot index, or -1.
func (m *Manager) freeSlot() (int, error) {
	for i := 0; i < m.slots; i++ {
		_, desc, _, err := m.slot(i)
		if err != nil {
			return -1, err
		}
		if desc == 0 {
			return i, nil
		}
	}
	return -1, nil
}

// Save writes a snapshot under id. Each chunk whose bytes equal, at
// the same index and length, the chunk of the previous snapshot prev
// is reused rather than rewritten, keeping prev's CRC; pass prev = 0 for
// a full checkpoint. Only the chunks Save writes are checksummed. The
// snapshot becomes visible atomically; a crash mid-save leaves the
// directory untouched.
func (m *Manager) Save(id uint64, prev uint64, data []byte) error {
	if id == 0 {
		return fmt.Errorf("checkpoint: id 0 is reserved")
	}
	if len(data) == 0 {
		return fmt.Errorf("checkpoint: empty snapshot")
	}
	if existing, _, _, err := m.findSlot(id); err != nil {
		return err
	} else if existing >= 0 {
		return fmt.Errorf("checkpoint: id %d already saved", id)
	}
	slot, err := m.freeSlot()
	if err != nil {
		return err
	}
	if slot < 0 {
		return fmt.Errorf("checkpoint: all %d slots full; delete one first", m.slots)
	}

	// Base descriptor for dedup.
	base, baseSize := m.base[:0], uint64(0)
	if prev != 0 {
		if base, baseSize, err = m.loadDescriptor(prev, base); err != nil {
			return fmt.Errorf("checkpoint: base snapshot %d: %w", prev, err)
		}
		m.base = base
	}

	// Until the publishing Update below, nothing on media references
	// the chunks and descriptor allocated here, so every failure before
	// it frees them (release) instead of leaking them.
	nChunks := (len(data) + ChunkSize - 1) / ChunkSize
	if cap(m.refs) < nChunks {
		m.refs = make([]chunkRef, nChunks)
	}
	refs := m.refs[:nChunks]
	reused := 0
	for c := range refs {
		lo := c * ChunkSize
		hi := min(lo+ChunkSize, len(data))
		if c < len(base) && chunkLen(baseSize, c) == hi-lo {
			pb, err := m.pool.View(pmem.OID{PoolID: m.pool.PoolID(), Off: base[c].off}, uint64(hi-lo))
			if err == nil && bytes.Equal(pb, data[lo:hi]) {
				refs[c] = base[c]
				reused++
				continue
			}
		}
		oid, err := m.pool.AllocFrom(data[lo:hi])
		if err != nil {
			return m.release(err, refs[:c], base)
		}
		refs[c] = chunkRef{off: oid.Off, crc: crc32.Checksum(data[lo:hi], crcTable)}
	}
	m.lastReused = reused

	desc, err := m.pool.AllocFrom(m.descriptor(refs))
	if err != nil {
		return m.release(err, refs, base)
	}
	m.pool.Drain()

	// Atomic publish: one transactional slot write.
	slotOff := uint64(dirHeader + slot*slotSize)
	return m.pool.Update(m.root, slotOff, slotSize, func(b []byte) error {
		binary.LittleEndian.PutUint64(b[0:], id)
		binary.LittleEndian.PutUint64(b[8:], desc.Off)
		binary.LittleEndian.PutUint64(b[16:], uint64(len(data)))
		return nil
	})
}

// chunkLen is the length of chunk c of a snapshot of size bytes.
func chunkLen(size uint64, c int) int {
	return int(min(size-uint64(c)*ChunkSize, ChunkSize))
}

type chunkRef struct {
	off uint64
	crc uint32
}

// descriptor renders refs in the descriptor layout into m.desc and
// returns it. The pad words are never written, so they stay zero.
func (m *Manager) descriptor(refs []chunkRef) []byte {
	n := descHeader + len(refs)*descEntry
	if cap(m.desc) < n {
		m.desc = make([]byte, n)
	}
	db := m.desc[:n]
	binary.LittleEndian.PutUint64(db[0:], uint64(len(refs)))
	for c, r := range refs {
		e := descHeader + c*descEntry
		binary.LittleEndian.PutUint64(db[e:], r.off)
		binary.LittleEndian.PutUint32(db[e+8:], r.crc)
	}
	return db
}

// release frees the chunks a failed Save allocated, every entry of
// refs not taken over from base, and returns the Save's error.
func (m *Manager) release(cause error, refs, base []chunkRef) error {
	var freeErr error
	for c, r := range refs {
		if c < len(base) && r.off == base[c].off {
			continue
		}
		if err := m.pool.Free(pmem.OID{PoolID: m.pool.PoolID(), Off: r.off}); err != nil && freeErr == nil {
			freeErr = err
		}
	}
	if freeErr != nil {
		return fmt.Errorf("%w (freeing its chunks also failed: %v)", cause, freeErr)
	}
	return cause
}

// loadDescriptor appends snapshot id's descriptor entries to refs and
// returns them with the snapshot's size.
func (m *Manager) loadDescriptor(id uint64, refs []chunkRef) ([]chunkRef, uint64, error) {
	slot, descOff, size, err := m.findSlot(id)
	if err != nil {
		return refs, 0, err
	}
	if slot < 0 {
		return refs, 0, fmt.Errorf("checkpoint: no snapshot %d", id)
	}
	db, err := m.entries(id, descOff, size)
	if err != nil {
		return refs, 0, err
	}
	return decode(refs, db), size, nil
}

// decode appends the chunk refs in descriptor entries db to refs.
func decode(refs []chunkRef, db []byte) []chunkRef {
	for e := 0; e < len(db); e += descEntry {
		refs = append(refs, chunkRef{
			off: binary.LittleEndian.Uint64(db[e:]),
			crc: binary.LittleEndian.Uint32(db[e+8:]),
		})
	}
	return refs
}

// entries returns a view of the entries of snapshot id's descriptor. It
// rejects a descriptor whose chunk count, read from media, is not the
// one the slot's size needs, so a corrupt count is never used as a
// length or allowed to steer a Free.
func (m *Manager) entries(id, descOff, size uint64) ([]byte, error) {
	desc := pmem.OID{PoolID: m.pool.PoolID(), Off: descOff}
	nb, err := m.pool.View(desc, descHeader)
	if err != nil {
		return nil, err
	}
	n := size / ChunkSize
	if size%ChunkSize != 0 {
		n++
	}
	if got := binary.LittleEndian.Uint64(nb); got != n {
		return nil, fmt.Errorf("checkpoint: snapshot %d descriptor corrupt: %d chunks for %d bytes, want %d", id, got, size, n)
	}
	db, err := m.pool.View(desc, descHeader+n*descEntry)
	if err != nil {
		return nil, err
	}
	return db[descHeader:], nil
}

// Load reads snapshot id, verifying every chunk CRC.
func (m *Manager) Load(id uint64) ([]byte, error) {
	refs, size, err := m.loadDescriptor(id, nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	for c, r := range refs {
		lo := c * ChunkSize
		hi := lo + chunkLen(size, c)
		v, err := m.pool.View(pmem.OID{PoolID: m.pool.PoolID(), Off: r.off}, uint64(hi-lo))
		if err != nil {
			return nil, err
		}
		if crc32.Checksum(v, crcTable) != r.crc {
			return nil, fmt.Errorf("checkpoint: snapshot %d chunk %d corrupt", id, c)
		}
		copy(out[lo:hi], v)
	}
	return out, nil
}

// List returns the saved snapshot IDs in slot order.
func (m *Manager) List() ([]uint64, error) {
	var out []uint64
	for i := 0; i < m.slots; i++ {
		id, desc, _, err := m.slot(i)
		if err != nil {
			return nil, err
		}
		if desc != 0 {
			out = append(out, id)
		}
	}
	return out, nil
}

// Latest returns the highest saved ID and its data.
func (m *Manager) Latest() (uint64, []byte, error) {
	ids, err := m.List()
	if err != nil {
		return 0, nil, err
	}
	var best uint64
	for _, id := range ids {
		if id > best {
			best = id
		}
	}
	if best == 0 {
		return 0, nil, fmt.Errorf("checkpoint: no snapshots")
	}
	data, err := m.Load(best)
	return best, data, err
}

// Delete removes a snapshot's directory entry. Chunk storage shared
// with other snapshots stays allocated; exclusively owned chunks are
// freed.
func (m *Manager) Delete(id uint64) error {
	slot, descOff, size, err := m.findSlot(id)
	if err != nil {
		return err
	}
	if slot < 0 {
		return fmt.Errorf("checkpoint: no snapshot %d", id)
	}
	db, err := m.entries(id, descOff, size)
	if err != nil {
		return err
	}
	refs := decode(m.refs[:0], db)
	m.refs = refs
	// Save reuses a base chunk only at its own index, so chunk c is
	// shared exactly when another live snapshot holds its offset at
	// index c. Shared entries are zeroed so the loop below skips them.
	for i := 0; i < m.slots; i++ {
		if i == slot {
			continue
		}
		other, otherDesc, otherSize, err := m.slot(i)
		if err != nil {
			return err
		}
		if otherDesc == 0 {
			continue
		}
		db, err := m.entries(other, otherDesc, otherSize)
		if err != nil {
			return err
		}
		for c := range min(len(refs), len(db)/descEntry) {
			if refs[c].off == binary.LittleEndian.Uint64(db[c*descEntry:]) {
				refs[c].off = 0
			}
		}
	}
	// Unpublish first (atomic), then reclaim.
	slotOff := uint64(dirHeader + slot*slotSize)
	err = m.pool.Update(m.root, slotOff, slotSize, func(b []byte) error {
		for i := range b {
			b[i] = 0
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range refs {
		if r.off != 0 {
			if err := m.pool.Free(pmem.OID{PoolID: m.pool.PoolID(), Off: r.off}); err != nil {
				return err
			}
		}
	}
	return m.pool.Free(pmem.OID{PoolID: m.pool.PoolID(), Off: descOff})
}

// Slots returns the directory capacity.
func (m *Manager) Slots() int { return m.slots }

// LastReused reports how many chunks the most recent Save deduplicated
// against its base snapshot.
func (m *Manager) LastReused() int { return m.lastReused }
