package ras

import (
	"fmt"

	"cxlpmem/internal/memdev"
)

// lineSize mirrors the CXL line size without importing internal/cxl
// (ras sits below the protocol layer so fabric and cxl can both use
// it).
const lineSize = 64

// zeroChunk is the shared scrub source (WriteAt never mutates its
// input); a package-level buffer keeps scrubbing allocation-free under
// concurrent reclaim.
var zeroChunk [1 << 20]byte

// ZeroFill zeroes [base, base+size) on media in bounded chunks. It is
// the single scrub-to-zero implementation: the fabric manager's
// free/forced-reclaim scrub and any RAS repair path share it, so the
// two can never diverge.
func ZeroFill(media memdev.Device, base, size uint64) error {
	for off := uint64(0); off < size; {
		n := uint64(len(zeroChunk))
		if off+n > size {
			n = size - off
		}
		if err := media.WriteAt(zeroChunk[:n], int64(base+off)); err != nil {
			return fmt.Errorf("ras: scrub %s [%#x+%#x): %w", media.Name(), base, size, err)
		}
		off += n
	}
	return nil
}

// rangesFor resolves the committed spans patrol walks for d: the
// caller's hook, the media's own RangeLister, or — neither — the full
// capacity.
func rangesFor(d *device) []memdev.Range {
	if d.opts.Ranges != nil {
		return d.opts.Ranges()
	}
	if rl, ok := d.media.(memdev.RangeLister); ok {
		return rl.Committed()
	}
	return []memdev.Range{{Base: 0, Size: uint64(d.media.Capacity().Bytes())}}
}

// readStripe fetches [dpa, dpa+n) through the configured path.
func (d *device) readStripe(dpa uint64, n int) error {
	if d.opts.Read != nil {
		return d.opts.Read(dpa, d.buf[:n])
	}
	return d.media.ReadAt(d.buf[:n], int64(dpa))
}

// probeLine reads the single line at dpa.
func (d *device) probeLine(dpa uint64) error {
	if d.opts.Probe != nil {
		return d.opts.Probe(dpa)
	}
	if d.opts.Read != nil {
		return d.opts.Read(dpa, d.buf[:lineSize])
	}
	return d.media.ReadAt(d.buf[:lineSize], int64(dpa))
}

// scanStripeLocked runs the post-read error check over one stripe: with
// a poison source, every line is checked against it (the stand-in for
// the media ECC check a real patrol read performs); without one, a
// failed stripe read is localised line by line with Probe. Newly found
// bad lines count as Correctable — patrol caught them before a demand
// access — and emit a poison event.
func (p *Plane) scanStripeLocked(d *device, dpa uint64, n int, readErr error) {
	checkLine := func(la uint64) bool {
		if d.opts.Poisoned != nil {
			return d.opts.Poisoned(la)
		}
		// No poison source: only a failed stripe justifies probing,
		// and only a failing line is suspect.
		return readErr != nil && d.probeLine(la) != nil
	}
	if d.opts.Poisoned == nil && readErr == nil {
		return
	}
	end := dpa + uint64(n)
	for la := dpa - dpa%lineSize; la < end; la += lineSize {
		if !checkLine(la) {
			continue
		}
		if _, dup := d.seen[la]; dup {
			continue
		}
		d.seen[la] = struct{}{}
		d.poisonedLines++
		d.media.Stats().Correctable.Add(1)
		p.emitLocked(Event{Device: d.name, Kind: EventScrubPoison, DPA: la})
	}
}

// scrubStep advances the patrol scrub of name by up to budget bytes
// (at least one stripe). It returns the bytes scrubbed and whether a
// full pass over the committed footprint completed during this step.
// Steady state allocates nothing: the stripe buffer is preallocated
// and the committed-range walk reuses the pass's cached slice.
func (p *Plane) scrubStep(name string, budget int64) (scrubbed int64, passDone bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.devs[name]
	if d == nil {
		return 0, false, fmt.Errorf("ras: unknown device %s", name)
	}
	if st := d.health.Load().State; st == Offline {
		return 0, false, nil
	}
	if d.ranges == nil {
		d.ranges = rangesFor(d)
		d.ri, d.off = 0, 0
	}
	for scrubbed < budget || scrubbed == 0 {
		if d.ri >= len(d.ranges) {
			// Pass complete: report, then rebuild the range list next
			// step so newly committed media joins the patrol.
			d.passes++
			p.emitLocked(Event{
				Device: d.name, Kind: EventScrubPass,
				Detail: fmt.Sprintf("pass %d, %d bytes lifetime", d.passes, d.scrubbedBytes),
			})
			d.ranges = nil
			d.publishLocked(d.health.Load().State)
			return scrubbed, true, nil
		}
		r := d.ranges[d.ri]
		if d.off < r.Base {
			d.off = r.Base
		}
		if d.off >= r.Base+r.Size {
			d.ri++
			d.off = 0
			continue
		}
		n := uint64(len(d.buf))
		if rem := r.Base + r.Size - d.off; rem < n {
			n = rem
		}
		readErr := d.readStripe(d.off, int(n))
		p.scanStripeLocked(d, d.off, int(n), readErr)
		d.off += n
		d.scrubbedBytes += int64(n)
		scrubbed += int64(n)
	}
	// The health snapshot is republished only at pass boundaries; a
	// mid-pass step stays allocation-free.
	return scrubbed, false, nil
}

// ScrubPass runs one complete patrol pass over name's committed media
// and returns the bytes scrubbed.
func (p *Plane) ScrubPass(name string) (int64, error) {
	var total int64
	for {
		n, done, err := p.scrubStep(name, 1<<20)
		total += n
		if err != nil || done {
			return total, err
		}
		if n == 0 {
			// Offline device or empty footprint: a zero-byte step that
			// did not complete a pass means patrol is suspended.
			return total, nil
		}
	}
}
