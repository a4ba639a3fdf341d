package cxl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// concurrencyPort builds a trained port over a Type-3 device with one
// identity-mapped decoder of the given size.
func concurrencyPort(t *testing.T, size uint64) (*RootPort, *Type3Device) {
	t.Helper()
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name: "conc-dram", Rate: 3200, Channels: 1,
		CapacityPerChannel: units.Size(size),
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewType3("conc-dev", 0x8086, 0x0001, media)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: size}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	return rp, dev
}

// TestConcurrentMixedTrafficNoDuplicateTags drives many goroutines of
// mixed line and burst traffic through one port and asserts the
// multi-queue tag discipline: with fewer transactions than the tag
// space holds, no two transactions may ever receive the same tag, and
// the per-VC issue counters must account for every transaction.
func TestConcurrentMixedTrafficNoDuplicateTags(t *testing.T) {
	const (
		workers     = 8
		rounds      = 60
		regionBytes = 16 << 10 // per-worker region
	)
	rp, _ := concurrencyPort(t, workers*regionBytes)

	var tagMu sync.Mutex
	tags := make(map[uint16]int)
	rp.SetFault(func(f Flit) Flit {
		// Every transaction — line read, line write, burst — leaves as
		// one request flit carrying its wire tag.
		var req MemReq
		if DecodeReqInto(&req, &f) == nil {
			tagMu.Lock()
			tags[req.Tag]++
			tagMu.Unlock()
		}
		return f
	})

	var issued atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * regionBytes)
			burst := make([]byte, 4096)
			var line [LineSize]byte
			for i := 0; i < rounds; i++ {
				for j := range burst {
					burst[j] = byte(w ^ i ^ j)
				}
				if err := rp.WriteBurst(base, burst); err != nil {
					errs[w] = err
					return
				}
				got := make([]byte, len(burst))
				if err := rp.ReadBurst(base, got); err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(burst, got) {
					errs[w] = &PortError{Port: "conc", Op: "verify", Addr: base, Why: "burst read-back mismatch (lost update)"}
					return
				}
				lineAddr := base + 8192
				for j := range line {
					line[j] = byte(w + i + j)
				}
				if err := rp.WriteLine(lineAddr, &line); err != nil {
					errs[w] = err
					return
				}
				var back [LineSize]byte
				if err := rp.ReadLine(lineAddr, &back); err != nil {
					errs[w] = err
					return
				}
				if back != line {
					errs[w] = &PortError{Port: "conc", Op: "verify", Addr: lineAddr, Why: "line read-back mismatch (lost update)"}
					return
				}
				issued.Add(4)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Tag uniqueness: every issued transaction carries a distinct
	// (VC, sequence) pair until a VC's sequence wraps at 2^13; the
	// test issues far fewer.
	tagMu.Lock()
	defer tagMu.Unlock()
	for tag, n := range tags {
		if n != 1 {
			t.Errorf("tag %#x issued %d times (duplicate in-flight tag)", tag, n)
		}
	}
	if int64(len(tags)) != issued.Load() {
		t.Errorf("traced %d distinct request tags, want %d", len(tags), issued.Load())
	}
	var vcIssued int64
	for _, vc := range rp.Stats().VCs {
		vcIssued += vc.Issued
	}
	if vcIssued != issued.Load() {
		t.Errorf("per-VC issue counters sum to %d, want %d", vcIssued, issued.Load())
	}
}

// TestConcurrentTrafficWithFaultInjection runs the same mixed workload
// under deterministic fault injection: every 17th flit on the wire is
// corrupted once. Each corruption must cost exactly one link-level
// retransmission (never a failed transaction: retransmits are 17 moves
// apart, so a retried flit is never corrupted twice in a row), the
// port-level retry counter must equal the number of injected faults,
// and the per-VC retry counters must sum to it.
func TestConcurrentTrafficWithFaultInjection(t *testing.T) {
	const (
		workers     = 8
		rounds      = 40
		regionBytes = 8 << 10
	)
	rp, _ := concurrencyPort(t, workers*regionBytes)

	var moves, injected atomic.Int64
	rp.SetFault(func(f Flit) Flit {
		if moves.Add(1)%17 == 0 {
			injected.Add(1)
			return f.Corrupt(5)
		}
		return f
	})

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * regionBytes)
			burst := make([]byte, 2048)
			var line [LineSize]byte
			for i := 0; i < rounds; i++ {
				for j := range burst {
					burst[j] = byte(w*31 + i + j)
				}
				if err := rp.WriteBurst(base, burst); err != nil {
					errs[w] = err
					return
				}
				got := make([]byte, len(burst))
				if err := rp.ReadBurst(base, got); err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(burst, got) {
					errs[w] = &PortError{Port: "conc", Op: "verify", Addr: base, Why: "lost update under fault injection"}
					return
				}
				line[0] = byte(i)
				if err := rp.WriteLine(base+4096, &line); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := rp.Stats().Retries, injected.Load(); got != want {
		t.Errorf("Retries() = %d, want %d (one retransmission per injected fault)", got, want)
	}
	var vcRetries int64
	for _, vc := range rp.Stats().VCs {
		vcRetries += vc.Retries
	}
	if vcRetries != rp.Stats().Retries {
		t.Errorf("per-VC retry counters sum to %d, want %d", vcRetries, rp.Stats().Retries)
	}
}

// TestHookSwapDuringTraffic swaps the per-flit hook while traffic is in
// flight: the snapshot pattern must keep every transaction on one
// consistent hook snapshot (the race detector guards the rest).
func TestHookSwapDuringTraffic(t *testing.T) {
	rp, _ := concurrencyPort(t, 1<<20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var trafficErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := rp.WriteBurst(uint64(i%16)*4096, buf); err != nil {
				trafficErr = err
				return
			}
		}
	}()
	var seen atomic.Int64
	for i := 0; i < 200; i++ {
		rp.SetFault(func(f Flit) Flit { seen.Add(1); return f })
		rp.SetFault(func(f Flit) Flit { return f })
		rp.SetFault(nil)
	}
	close(stop)
	wg.Wait()
	if trafficErr != nil {
		t.Fatalf("traffic failed during hook swaps: %v", trafficErr)
	}
}

// TestConcurrentPartitions drives every extent of one MLD from its own
// goroutine through its own endpoint and port: traffic on one extent
// must never reach another's bytes, and every byte a host writes must
// reach the shared media exactly once.
func TestConcurrentPartitions(t *testing.T) {
	const parts = 4
	const partSize = 4 << 20
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name: "mld-dram", Rate: 3200, Channels: 1,
		CapacityPerChannel: parts * partSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	mld, err := NewMLD("mld", media)
	if err != nil {
		t.Fatal(err)
	}
	ports := make([]*RootPort, parts)
	devs := make([]*Type3Device, parts)
	exts := make([]Extent, parts)
	for i := 0; i < parts; i++ {
		exts[i], devs[i] = extentEndpoint(t, mld, fmt.Sprintf("ld%d", i), partSize)
		ports[i] = trainedPort(t, devs[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, parts)
	for i := 0; i < parts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			got := make([]byte, 4096)
			for r := 0; r < 50; r++ {
				addr := uint64(r%4) * 4096
				if err := ports[i].WriteBurst(addr, buf); err != nil {
					errs[i] = err
					return
				}
				if err := ports[i].ReadBurst(addr, got); err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(buf, got) {
					errs[i] = &PortError{Port: "part", Op: "verify", Addr: addr, Why: "cross-partition interference"}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
	}
	for i, dev := range devs {
		if w, r := dev.Stats().WriteBursts.Load(), dev.Stats().ReadBursts.Load(); w != 50 || r != 50 {
			t.Errorf("partition %d served %d write and %d read bursts, want 50 each", i, w, r)
		}
		// The extent's first 16 KiB hold its own host's pattern and
		// nothing beyond them was touched.
		got := make([]byte, 5*4096)
		if err := media.ReadAt(got, int64(exts[i].Base)); err != nil {
			t.Fatal(err)
		}
		want := append(bytes.Repeat([]byte{byte(i + 1)}, 4*4096), make([]byte, 4096)...)
		if !bytes.Equal(got, want) {
			t.Errorf("partition %d: extent %v does not hold its host's pattern alone", i, exts[i])
		}
	}
	if _, _, _, wrote := media.Stats().Snapshot(); wrote != parts*50*4096 {
		t.Errorf("media took %d written bytes, want %d", wrote, parts*50*4096)
	}
}

// TestSwitchRebindDuringTraffic races the switch control plane
// (Bind/Unbind/Rebind/EndpointFor/Bindings on spare vPPBs) against
// CXL.mem traffic flowing through root ports whose endpoints were
// resolved through the same switch. The routing snapshot must keep
// lookups wait-free and consistent while bindings churn; the race
// detector gates the whole interleaving on CI.
func TestSwitchRebindDuringTraffic(t *testing.T) {
	const hosts = 2
	const spares = 2
	const partSize = 1 << 20
	sw := NewSwitch("sw0")
	endpoint := func(name string) *Type3Device {
		dev, err := NewType3(name, CXLVendorID, 0x0D93, testMedia(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: partSize}); err != nil {
			t.Fatal(err)
		}
		return dev
	}
	ports := make([]*RootPort, hosts)
	for i := 0; i < hosts; i++ {
		dsp := fmt.Sprintf("dsp-traffic%d", i)
		if err := sw.AddDownstream(dsp, endpoint(dsp)); err != nil {
			t.Fatal(err)
		}
		vppb := fmt.Sprintf("host%d", i)
		if err := sw.Bind(vppb, dsp); err != nil {
			t.Fatal(err)
		}
		ep, ok := sw.EndpointFor(vppb)
		if !ok {
			t.Fatal("no endpoint after bind")
		}
		ports[i] = trainedPort(t, ep)
	}
	for i := 0; i < spares; i++ {
		dsp := fmt.Sprintf("dsp-spare%d", i)
		if err := sw.AddDownstream(dsp, endpoint(dsp)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var churnErr atomic.Value
	trafficErrs := make([]error, hosts)

	var traffic sync.WaitGroup
	for i := 0; i < hosts; i++ {
		traffic.Add(1)
		go func(i int) {
			defer traffic.Done()
			buf := make([]byte, 4096)
			for j := range buf {
				buf[j] = byte(i + 1)
			}
			got := make([]byte, 4096)
			for r := 0; !stop.Load(); r++ {
				addr := uint64(r%4) * 4096
				if err := ports[i].WriteBurst(addr, buf); err != nil {
					trafficErrs[i] = err
					return
				}
				if err := ports[i].ReadBurst(addr, got); err != nil {
					trafficErrs[i] = err
					return
				}
				if !bytes.Equal(buf, got) {
					trafficErrs[i] = &PortError{Port: "switch", Op: "verify", Addr: addr, Why: "data changed under rebind churn"}
					return
				}
			}
		}(i)
	}

	// Control-plane churn: each churner walks its spare vPPB across the
	// spare downstream ports; a lookup goroutine hammers EndpointFor on
	// the vPPBs carrying live traffic the whole time.
	var churn sync.WaitGroup
	for c := 0; c < spares; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			vppb := fmt.Sprintf("spare%d", c)
			dsps := []string{"dsp-spare0", "dsp-spare1"}
			for r := 0; r < 300; r++ {
				if err := sw.Bind(vppb, dsps[c]); err != nil {
					continue // the other churner holds the port right now
				}
				// Rebind may fail (target occupied); the binding must
				// survive either way so Unbind always succeeds.
				_ = sw.Rebind(vppb, dsps[1-c])
				if err := sw.Unbind(vppb); err != nil {
					churnErr.Store(err)
					return
				}
			}
		}(c)
	}
	churn.Add(1)
	go func() {
		defer churn.Done()
		for r := 0; r < 3000; r++ {
			for i := 0; i < hosts; i++ {
				if _, ok := sw.EndpointFor(fmt.Sprintf("host%d", i)); !ok {
					churnErr.Store(fmt.Errorf("traffic vPPB host%d lost its binding", i))
					return
				}
			}
			sw.EndpointFor("spare0")
			sw.Bindings()
		}
	}()

	churn.Wait()
	stop.Store(true)
	traffic.Wait()

	for i, err := range trafficErrs {
		if err != nil {
			t.Fatalf("host %d traffic failed: %v", i, err)
		}
	}
	if err := churnErr.Load(); err != nil {
		t.Fatalf("control-plane churn failed: %v", err)
	}
}

// TestConcurrentPartialWritesLoseNoUpdate has two writers own 2 bytes
// each of one line and hammer the device with MemWrPtls, reading the
// line back after every write. A device that served MemWrPtl as a
// read-modify-write of the whole line would let one writer put back a
// stale copy of the other's bytes: a lost update.
func TestConcurrentPartialWritesLoseNoUpdate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		writers = 2
		writes  = 100_000
	)
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		lost  [writers]int
	)
	start.Add(1)
	for w := 0; w < writers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			lo := 2 * w
			req := MemReq{Opcode: OpMemWrPtl, Addr: 0, Mask: 0b11 << lo}
			start.Wait()
			for i := 1; i <= writes; i++ {
				v := uint16(i)
				binary.LittleEndian.PutUint16(req.Data[lo:], v)
				if resp := dev.HandleMem(req); resp.Opcode != RespCmp {
					t.Errorf("writer %d: MemWrPtl resp = %v", w, resp.Opcode)
					return
				}
				resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0})
				if resp.Opcode != RespMemData {
					t.Errorf("writer %d: MemRd resp = %v", w, resp.Opcode)
					return
				}
				if binary.LittleEndian.Uint16(resp.Data[lo:]) != v {
					lost[w]++
				}
			}
		}(w)
	}
	start.Done()
	done.Wait()
	for w, n := range lost {
		if n != 0 {
			t.Errorf("writer %d: %d of %d writes lost to the other writer", w, n, writes)
		}
	}
}
