package cxl

import (
	"cxlpmem/internal/memdev"
)

// MemIO is the package's one public I/O surface: every fabric data path
// — a single root port, an interleave set striping over several, a
// direct-attached device, a window-translated view — presents the same
// shape, so consumers (core mounts, the tiering daemon, cluster hosts,
// the coherency cache) program against the interface and never against
// a concrete type.
//
// Address shapes are uniform across implementations:
//
//   - Line and burst entry points take a host physical address as
//     uint64, line-aligned for line ops and line-granular for bursts.
//   - ReadAt/WriteAt take an arbitrary byte offset as int64 and handle
//     unaligned heads/tails internally.
//
// Every method is synchronous: the transfer has completed at the device
// when it returns. Every failure is a *PortError wrapping one of the
// package sentinels (errors.go), so callers classify with errors.Is.
// Over a port, each line or burst chunk is one transaction moved
// through one pooled frame (RootPort.transact), allocating nothing in
// steady state.
type MemIO interface {
	// ReadLine fetches the 64-byte line at the line-aligned HPA.
	ReadLine(hpa uint64, out *[LineSize]byte) error
	// WriteLine stores a full 64-byte line at the line-aligned HPA.
	WriteLine(hpa uint64, data *[LineSize]byte) error
	// ReadBurst fetches len(p) bytes (line-granular) starting at hpa.
	ReadBurst(hpa uint64, p []byte) error
	// WriteBurst stores len(p) bytes (line-granular) starting at hpa.
	WriteBurst(hpa uint64, p []byte) error
	// ReadAt copies len(p) bytes from byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at byte offset off.
	WriteAt(p []byte, off int64) error
}

// Compile-time interface checks: every data path presents MemIO.
var (
	_ MemIO = (*RootPort)(nil)
	_ MemIO = (*InterleaveSet)(nil)
	_ MemIO = (*deviceIO)(nil)
	_ MemIO = (*windowIO)(nil)
)

// lineIO is a port-backed MemIO as the span splitter sees it: its line
// and burst transactions, plus the sub-line read and MemWrPtl write of
// the line at base that carry a span's unaligned head and tail.
// RootPort and InterleaveSet split spans the same way through it.
type lineIO interface {
	ReadLine(hpa uint64, out *[LineSize]byte) error
	WriteLine(hpa uint64, data *[LineSize]byte) error
	ReadBurst(hpa uint64, p []byte) error
	WriteBurst(hpa uint64, p []byte) error
	// readPartial fills p from byte lo of the line at base.
	readPartial(base uint64, lo int, p []byte) error
	// writePartial stores p at byte lo of the line at base.
	writePartial(base uint64, lo int, p []byte) error
}

// readAt copies len(p) bytes from HPA off through io: an unaligned head
// and a partial tail each as one sub-line read, a line-aligned interior
// of one line as a line read and a longer one as a burst, so bulk
// transfers cost O(bytes) instead of O(lines × codec round trips). An
// empty span issues no transaction.
func readAt(io lineIO, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	hpa := uint64(off)
	if lo := int(hpa % uint64(LineSize)); lo != 0 {
		n := min(LineSize-lo, len(p))
		if err := io.readPartial(hpa-uint64(lo), lo, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	if n := len(p) &^ (LineSize - 1); n > 0 {
		var err error
		if n == LineSize {
			err = io.ReadLine(hpa, (*[LineSize]byte)(p))
		} else {
			err = io.ReadBurst(hpa, p[:n])
		}
		if err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	if len(p) > 0 {
		return io.readPartial(hpa, 0, p)
	}
	return nil
}

// writeAt stores p at HPA off through io, split as readAt splits: the
// unaligned head and the partial tail become MemWrPtl writes under a
// byte mask, exactly as a write-combining host interface would, and the
// interior a line write or a burst. An empty span issues no
// transaction.
func writeAt(io lineIO, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	hpa := uint64(off)
	if lo := int(hpa % uint64(LineSize)); lo != 0 {
		n := min(LineSize-lo, len(p))
		if err := io.writePartial(hpa-uint64(lo), lo, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	if n := len(p) &^ (LineSize - 1); n > 0 {
		var err error
		if n == LineSize {
			err = io.WriteLine(hpa, (*[LineSize]byte)(p))
		} else {
			err = io.WriteBurst(hpa, p[:n])
		}
		if err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	if len(p) > 0 {
		return io.writePartial(hpa, 0, p)
	}
	return nil
}

// NewDeviceIO adapts a raw media device to MemIO — the data path for
// direct-attached (non-CXL) tiers, so consumers drive DRAM and fabric
// memory through one interface.
func NewDeviceIO(dev memdev.Device) MemIO { return &deviceIO{dev: dev} }

type deviceIO struct {
	dev memdev.Device
}

func (d *deviceIO) ReadLine(hpa uint64, out *[LineSize]byte) error {
	if !lineAligned(hpa) {
		return portErr(d.dev.Name(), "MemRd", hpa, ErrUnaligned, "unaligned")
	}
	return d.dev.ReadAt(out[:], int64(hpa))
}

func (d *deviceIO) WriteLine(hpa uint64, data *[LineSize]byte) error {
	if !lineAligned(hpa) {
		return portErr(d.dev.Name(), "MemWr", hpa, ErrUnaligned, "unaligned")
	}
	return d.dev.WriteAt(data[:], int64(hpa))
}

func (d *deviceIO) ReadBurst(hpa uint64, p []byte) error {
	if !lineAligned(hpa) || len(p)%LineSize != 0 {
		return portErr(d.dev.Name(), "MemRdBurst", hpa, ErrUnaligned, "unaligned burst")
	}
	return d.dev.ReadAt(p, int64(hpa))
}

func (d *deviceIO) WriteBurst(hpa uint64, p []byte) error {
	if !lineAligned(hpa) || len(p)%LineSize != 0 {
		return portErr(d.dev.Name(), "MemWrBurst", hpa, ErrUnaligned, "unaligned burst")
	}
	return d.dev.WriteAt(p, int64(hpa))
}

func (d *deviceIO) ReadAt(p []byte, off int64) error  { return d.dev.ReadAt(p, off) }
func (d *deviceIO) WriteAt(p []byte, off int64) error { return d.dev.WriteAt(p, off) }

// NewWindowIO presents a base-translated view of another MemIO: every
// HPA/offset the caller passes is shifted by base before reaching the
// inner path. Consumers that think in window-relative addresses (core
// mounts, the coherency cache, per-tier views) compose this over a port
// or interleave set instead of carrying the base themselves.
func NewWindowIO(inner MemIO, base uint64) MemIO {
	if base == 0 {
		return inner
	}
	return &windowIO{inner: inner, base: base}
}

type windowIO struct {
	inner MemIO
	base  uint64
}

func (w *windowIO) ReadLine(hpa uint64, out *[LineSize]byte) error {
	return w.inner.ReadLine(w.base+hpa, out)
}

func (w *windowIO) WriteLine(hpa uint64, data *[LineSize]byte) error {
	return w.inner.WriteLine(w.base+hpa, data)
}

func (w *windowIO) ReadBurst(hpa uint64, p []byte) error {
	return w.inner.ReadBurst(w.base+hpa, p)
}

func (w *windowIO) WriteBurst(hpa uint64, p []byte) error {
	return w.inner.WriteBurst(w.base+hpa, p)
}

func (w *windowIO) ReadAt(p []byte, off int64) error {
	return w.inner.ReadAt(p, off+int64(w.base))
}

func (w *windowIO) WriteAt(p []byte, off int64) error {
	return w.inner.WriteAt(p, off+int64(w.base))
}
