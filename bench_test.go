// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Figures 5-8
// report the modelled sustained bandwidth of each test group at the
// full thread count as custom GB/s metrics; the ablation benches cover
// the design alternatives §2.2 and §6 discuss; the remaining benches
// measure the real (wall-clock) cost of the substrate's hot paths.
package cxlpmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cxlpmem/internal/checkpoint"
	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fpga"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/numa"
	"cxlpmem/internal/perf"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/stream"
	"cxlpmem/internal/streamer"
	"cxlpmem/internal/tiering"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// metricName makes a label usable as a testing.B metric unit (no
// whitespace allowed).
func metricName(s string) string {
	return strings.NewReplacer(" ", "_", ",", "", "(", "", ")", "").Replace(s)
}

// benchHarness is shared across figure benches (assembly is cheap but
// not free).
func benchHarness(b *testing.B) *streamer.Harness {
	b.Helper()
	h, err := streamer.NewHarness()
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// figureBench regenerates one figure per iteration and reports the
// saturated bandwidth of every series as GB/s metrics.
func figureBench(b *testing.B, number int) {
	h := benchHarness(b)
	var fig *streamer.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = h.Figure(number)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, g := range streamer.Groups {
		for _, s := range fig.Groups[g] {
			name := metricName(fmt.Sprintf("%s/%s/%s:GB/s", g, s.Setup, s.Label))
			b.ReportMetric(s.Max(), name)
		}
	}
}

// BenchmarkFig5Scale regenerates Figure 5 (SCALE, groups 1a-2b).
func BenchmarkFig5Scale(b *testing.B) { figureBench(b, 5) }

// BenchmarkFig6Add regenerates Figure 6 (ADD).
func BenchmarkFig6Add(b *testing.B) { figureBench(b, 6) }

// BenchmarkFig7Copy regenerates Figure 7 (COPY).
func BenchmarkFig7Copy(b *testing.B) { figureBench(b, 7) }

// BenchmarkFig8Triad regenerates Figure 8 (TRIAD).
func BenchmarkFig8Triad(b *testing.B) { figureBench(b, 8) }

// BenchmarkTableDCPMM regenerates the §1.4 DCPMM-vs-CXL comparison.
func BenchmarkTableDCPMM(b *testing.B) {
	h := benchHarness(b)
	var rows []streamer.DCPMMRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = h.DCPMMTable()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ReadGBps, metricName(r.Device+":read-GB/s"))
		b.ReportMetric(r.WriteGBps, metricName(r.Device+":write-GB/s"))
	}
}

// --- Ablations (DESIGN.md §3) -------------------------------------------

// cxlRateWith builds Setup #1 with modified prototype options and
// returns the modelled 10-thread App-Direct Copy rate against the CXL
// node.
func cxlRateWith(b *testing.B, opts topology.Setup1Options) float64 {
	b.Helper()
	m, _, err := topology.Setup1(opts)
	if err != nil {
		b.Fatal(err)
	}
	cores, err := numa.PlaceOnSocket(m, 0, 10)
	if err != nil {
		b.Fatal(err)
	}
	r, err := perf.New(m).StreamBandwidth(cores, 2, stream.Copy.Mix(), perf.AppDirect)
	if err != nil {
		b.Fatal(err)
	}
	return r.Total.GBps()
}

// BenchmarkAblationLinkGen compares the CXL 1.1/2.0 PCIe-Gen5 link with
// a CXL 3.0 Gen6 link (§1.3). The prototype is IP-slice-bound, so the
// faster link alone moves nothing — the per-slice cap must scale too,
// which is exactly the §2.2 observation that the bandwidth limit "does
// not reflect an intrinsic limitation of the CXL standard".
func BenchmarkAblationLinkGen(b *testing.B) {
	var g5, g6, g6s float64
	for i := 0; i < b.N; i++ {
		g5 = cxlRateWith(b, topology.Setup1Options{})
		g6 = cxlRateWith(b, topology.Setup1Options{FPGA: fpga.Options{LinkKind: interconnect.KindPCIe6}})
		g6s = cxlRateWith(b, topology.Setup1Options{
			FPGA:     fpga.Options{LinkKind: interconnect.KindPCIe6},
			IPSlices: 2,
		})
	}
	b.ReportMetric(g5, "gen5:GB/s")
	b.ReportMetric(g6, "gen6:GB/s")
	b.ReportMetric(g6s, "gen6+2slices:GB/s")
}

// BenchmarkAblationDeviceDRAM sweeps the card's DRAM speed (§2.2:
// "transitioning to a higher-speed FPGA, supporting DDR4 speeds of
// 3200 Mbps or even embracing the capabilities of DDR5 at 5600 Mbps").
func BenchmarkAblationDeviceDRAM(b *testing.B) {
	rates := map[string]units.TransferRate{"ddr4-1333": 1333, "ddr4-3200": 3200, "ddr5-5600": 5600}
	out := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, rate := range rates {
			// Scale IP slices with the faster media so the device
			// side is not the artificial limit.
			out[name] = cxlRateWith(b, topology.Setup1Options{
				FPGA:     fpga.Options{Rate: rate},
				IPSlices: 4,
			})
		}
	}
	for name, v := range out {
		b.ReportMetric(v, name+":GB/s")
	}
}

// BenchmarkAblationChannels sweeps the card's DDR channel count (§2.2:
// "possibly transitioning from one channel to four").
func BenchmarkAblationChannels(b *testing.B) {
	out := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, ch := range []int{1, 2, 4} {
			out[ch] = cxlRateWith(b, topology.Setup1Options{
				FPGA:     fpga.Options{Channels: ch},
				IPSlices: 4,
			})
		}
	}
	for ch, v := range out {
		b.ReportMetric(v, fmt.Sprintf("channels=%d:GB/s", ch))
	}
}

// BenchmarkAblationMultiHost models the §6 future-work question: more
// than one node accessing one CXL memory pool. A real switch, MLD and
// fabric manager are assembled (internal/cluster), each host granted a
// fixed 64 MiB share; the appliance's shared pipeline caps the
// aggregate, so per-host bandwidth decays as hosts join.
func BenchmarkAblationMultiHost(b *testing.B) {
	var pts []cluster.ScalePoint
	for i := 0; i < b.N; i++ {
		c, err := cluster.NewElastic(cluster.ElasticConfig{
			Hosts: 4, Pool: 4 * 64 * units.MiB, Quota: 64 * units.MiB, Initial: 64 * units.MiB,
		})
		if err != nil {
			b.Fatal(err)
		}
		pts, err = c.Scalability(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.PerHost.GBps(), fmt.Sprintf("hosts=%d:per-host-GB/s", p.Hosts))
	}
	b.ReportMetric(pts[len(pts)-1].Aggregate.GBps(), "aggregate:GB/s")
}

// BenchmarkAblationHybrid measures the §6 hybrid-architecture payoff:
// average access latency of a skewed working set before and after the
// tiering daemon migrates hot pages toward DDR5 (internal/tiering).
func BenchmarkAblationHybrid(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		m, _, err := topology.Setup1(topology.Setup1Options{})
		if err != nil {
			b.Fatal(err)
		}
		mgr, hybrid, err := tiering.NewDDR5CXLDCPMMHierarchy(m, 4, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
		d, err := tiering.NewDaemon(mgr, tiering.DaemonConfig{BudgetPages: 8})
		if err != nil {
			b.Fatal(err)
		}
		var pages []tiering.PageID
		for p := 0; p < 24; p++ {
			id, err := mgr.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			pages = append(pages, id)
		}
		buf := make([]byte, 64)
		// Cold-start placement lands the first 16 pages on DCPMM; the
		// hot set is drawn from those far-tier residents.
		touch := func() {
			for _, id := range pages[:4] {
				for k := 0; k < 64; k++ {
					if err := mgr.Read(id, buf, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		c0, err := hybrid.Core(0)
		if err != nil {
			b.Fatal(err)
		}
		touch()
		lb, err := mgr.AvgAccessLatency(hybrid, c0)
		if err != nil {
			b.Fatal(err)
		}
		// Four epochs: the hot set swaps into CXL at the second and
		// moves to DDR5 at the fourth, once it has sat out its
		// residency.
		for e := 0; e < 4; e++ {
			d.RunEpoch()
			touch()
		}
		la, err := mgr.AvgAccessLatency(hybrid, c0)
		if err != nil {
			b.Fatal(err)
		}
		before, after = lb.Ns(), la.Ns()
	}
	b.ReportMetric(before, "before-rebalance:ns")
	b.ReportMetric(after, "after-rebalance:ns")
}

// BenchmarkMemtierDaemon measures the memtier policy daemon's epoch
// cost under live zipfian foreground traffic: every iteration drives
// 2000 skewed accesses over a cold-started DDR5/CXL/DCPMM hierarchy
// and runs one policy epoch (heat-window advance, EWMA scan, budgeted
// migrations). After the first few epochs the hot set sits on DDR5 and
// epochs are pure scans, so ns/op is the daemon's steady-state
// overhead. Reports the converged average access latency and the
// migration rate.
func BenchmarkMemtierDaemon(b *testing.B) {
	m, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		b.Fatal(err)
	}
	mgr, hybrid, err := tiering.NewDDR5CXLDCPMMHierarchy(m, 4, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	d, err := tiering.NewDaemon(mgr, tiering.DaemonConfig{BudgetPages: 8})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]tiering.PageID, 16)
	for i := range ids {
		if ids[i], err = mgr.Alloc(); err != nil {
			b.Fatal(err)
		}
	}
	c0, err := hybrid.Core(0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(len(ids)-1))
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2000; k++ {
			p := int(zipf.Uint64())
			if err := mgr.Read(ids[p], buf, int64((k%64)*64)); err != nil {
				b.Fatal(err)
			}
		}
		d.RunEpoch()
	}
	b.StopTimer()
	// RunEpoch consumed the access counters; one untimed drive restores
	// the weights AvgAccessLatency averages over.
	for k := 0; k < 2000; k++ {
		p := int(zipf.Uint64())
		if err := mgr.Read(ids[p], buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	lat, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		b.Fatal(err)
	}
	st := mgr.Stats()
	b.ReportMetric(lat.Ns(), "avg-access:ns")
	b.ReportMetric(float64(st.Promotions+st.Demotions)/float64(b.N), "migrations/epoch")
}

// --- Real-execution benches ----------------------------------------------

func benchPool(b *testing.B, size int) *pmem.Pool {
	b.Helper()
	r := newBenchRegion(size)
	p, err := pmem.Create(r, "bench")
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationTxOverhead decomposes the PMDK cost: a transactional
// 4 KiB update vs a raw store+persist of the same range. The ratio is
// the microscopic counterpart of the figure-level PMDKFactor.
func BenchmarkAblationTxOverhead(b *testing.B) {
	b.Run("tx-update", func(b *testing.B) {
		p := benchPool(b, 64<<20)
		oid, err := p.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := p.Update(oid, 0, 4096, func(v []byte) error {
				v[i%4096] = byte(i)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-persist", func(b *testing.B) {
		p := benchPool(b, 64<<20)
		oid, err := p.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		v, err := p.View(oid, 4096)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v[i%4096] = byte(i)
			if err := p.Persist(oid, 4096); err != nil {
				b.Fatal(err)
			}
			p.Drain()
		}
	})
}

// benchCXLPort builds a trained port over the FPGA card (16 MiB HDM:
// two 8 MiB channels — enough for 16 independent 1 MiB parallel-worker
// regions) and returns it with its enumerated window base. Shared by
// the serial and parallel port benchmarks so they always measure the
// same hardware configuration.
func benchCXLPort(b *testing.B) (*cxl.RootPort, uint64) {
	b.Helper()
	card, err := fpga.New(fpga.Options{ChannelCapacity: 8 * units.MiB})
	if err != nil {
		b.Fatal(err)
	}
	rp := cxl.NewRootPort("rp", card.Link())
	if err := rp.Attach(card); err != nil {
		b.Fatal(err)
	}
	h, err := cxl.Enumerate(0, rp)
	if err != nil {
		b.Fatal(err)
	}
	return rp, h.Windows[0].Base
}

// BenchmarkCXLPortLine measures the substrate's real per-line CXL.mem
// round trip (flit encode, decode, HDM lookup, media access).
func BenchmarkCXLPortLine(b *testing.B) {
	rp, base := benchCXLPort(b)
	var line [cxl.LineSize]byte
	b.SetBytes(int64(cxl.LineSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint64(i%1024)*64
		if err := rp.WriteLine(addr, &line); err != nil {
			b.Fatal(err)
		}
		if err := rp.ReadLine(addr, &line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLineLayers times one line transaction entered at each layer
// of Setup #1's card: the root port (the whole wire, every flit through
// the codec), the Type-3 device's exported HandleMem (decode, poison
// probe and media access, no flits) and the media itself. Each layer
// times a MemRd, a MemWr and an 8-byte MemWrPtl, the shape of the undo
// log's lane words. Run it with -cpu 1 -benchmem; a layer's own cost is
// its time less the next layer down's. Targets rotate over 1024 lines
// (16 media pages, every VC), pre-touched, as BenchmarkCXLPortLine's do.
func BenchmarkLineLayers(b *testing.B) {
	rp, base := benchCXLPort(b)
	card := rp.Endpoint().(*fpga.Prototype)
	dev, media := card.Type3Device, card.Media()
	const lines = 1024
	if err := rp.WriteBurst(base, make([]byte, lines*cxl.LineSize)); err != nil {
		b.Fatal(err)
	}
	var line [cxl.LineSize]byte
	ptl := line[8:16]
	hpa := func(i int) uint64 { return base + uint64(i%lines*cxl.LineSize) }
	dpa := func(i int) int64 { return int64(i % lines * cxl.LineSize) }
	device := func(op cxl.MemOpcode, mask uint64) func(int) error {
		return func(i int) error {
			if resp := dev.HandleMem(cxl.MemReq{Opcode: op, Addr: hpa(i), Mask: mask, Data: line}); resp.Opcode == cxl.RespErr {
				return fmt.Errorf("%v answered %v", op, resp.Opcode)
			}
			return nil
		}
	}
	layers := []struct {
		name string
		ops  [3]func(i int) error // MemRd, MemWr, MemWrPtl of 8 bytes
	}{
		{"port", [3]func(int) error{
			func(i int) error { return rp.ReadLine(hpa(i), &line) },
			func(i int) error { return rp.WriteLine(hpa(i), &line) },
			func(i int) error { return rp.WriteAt(ptl, int64(hpa(i))+8) },
		}},
		{"device", [3]func(int) error{
			device(cxl.OpMemRd, 0), device(cxl.OpMemWr, 0), device(cxl.OpMemWrPtl, 0xFF<<8),
		}},
		{"media", [3]func(int) error{
			func(i int) error { return media.ReadAt(line[:], dpa(i)) },
			func(i int) error { return media.WriteAt(line[:], dpa(i)) },
			func(i int) error { return media.WriteAt(ptl, dpa(i)+8) },
		}},
	}
	for _, l := range layers {
		for k, op := range []string{"MemRd", "MemWr", "MemWrPtl8"} {
			do := l.ops[k]
			b.Run(l.name+"/"+op, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := do(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTxUpdateCXL times the paper's small undo-log transaction on
// Setup #1's 1-way CXL mount: a 64 B Pool.Update, which crosses the root
// port as six CXL.mem transactions (one line read, one line write and
// four MemWrPtls). Objects and offsets rotate, so consecutive
// transactions touch different lines.
func BenchmarkTxUpdateCXL(b *testing.B) {
	rt, err := NewSetup1(Setup1Options{FPGA: fpga.Options{ChannelCapacity: 8 * units.MiB}})
	if err != nil {
		b.Fatal(err)
	}
	n, ok := rt.CXLNode()
	if !ok {
		b.Fatal("no CXL node")
	}
	p, err := rt.CreatePool(n.ID, "bench-tx", "bench", 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	const objects, objSize, txBytes = 64, 256, 64
	oids := make([]pmem.OID, objects)
	for i := range oids {
		if oids[i], err = p.Alloc(objSize); err != nil {
			b.Fatal(err)
		}
	}
	var data [txBytes]byte
	store := func(v []byte) error {
		copy(v, data[:])
		return nil
	}
	b.SetBytes(txBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		off := uint64(i / objects % (objSize / txBytes) * txBytes)
		if err := p.Update(oids[i%objects], off, txBytes, store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointStep times the checkpoint-4way step on Setup #1's
// 4-way CXL mount: with 10% of a 1 MiB state's chunks dirtied untimed
// (one random word each), a deduplicating Save of the next snapshot and
// the Delete of the one four back, so four snapshots stay live.
func BenchmarkCheckpointStep(b *testing.B) {
	rt, err := NewSetup1(Setup1Options{InterleaveWays: 4, FPGA: fpga.Options{ChannelCapacity: 8 * units.MiB}})
	if err != nil {
		b.Fatal(err)
	}
	n, ok := rt.CXLNode()
	if !ok || n.Stripe == nil {
		b.Fatal("no interleaved CXL node")
	}
	b.Cleanup(n.Stripe.Close)
	const poolSize, stateSize, keep = 8 << 20, 1 << 20, 4
	const chunks = stateSize / checkpoint.ChunkSize
	const dirty = chunks / 10
	p, err := rt.CreatePool(n.ID, "bench-ckpt", checkpoint.Layout, poolSize)
	if err != nil {
		b.Fatal(err)
	}
	// Touch the heap's media once, so first-touch page materialisation
	// stays out of the timed loop.
	oid, err := p.Alloc(poolSize - 2<<20)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Free(oid); err != nil {
		b.Fatal(err)
	}
	m, err := checkpoint.New(p, 2*keep)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	state := make([]byte, stateSize)
	rng.Read(state)
	perm := rng.Perm(chunks)
	id := uint64(1)
	if err := m.Save(id, 0, state); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(dirty * checkpoint.ChunkSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < dirty; j++ {
			k := j + rng.Intn(chunks-j)
			perm[j], perm[k] = perm[k], perm[j]
			off := perm[j]*checkpoint.ChunkSize + rng.Intn(checkpoint.ChunkSize/8)*8
			binary.LittleEndian.PutUint64(state[off:], rng.Uint64())
		}
		b.StartTimer()
		id++
		if err := m.Save(id, id-1, state); err != nil {
			b.Fatal(err)
		}
		if id > keep {
			if err := m.Delete(id - keep); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCXLPortBurst measures the burst data path: 4 KiB moved per
// WriteBurst/ReadBurst pair under one header flit each, every data beat
// still crossing the modelled wire (encode, CRC, decode). The per-line
// baseline above needs 64 full codec round trips for the same bytes.
func BenchmarkCXLPortBurst(b *testing.B) {
	rp, base := benchCXLPort(b)
	const burst = cxl.MaxBurstLines * cxl.LineSize // 4 KiB
	buf := make([]byte, burst)
	for i := range buf {
		buf[i] = byte(i)
	}
	// Pre-touch the window so steady state measures the wire, not
	// first-touch page materialisation in the sparse media store.
	if err := rp.WriteBurst(base, buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * int64(burst)) // one write + one read per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint64(i%256)*uint64(burst) // cycle through a 1 MiB window
		if err := rp.WriteBurst(addr, buf); err != nil {
			b.Fatal(err)
		}
		if err := rp.ReadBurst(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInterleaveSet builds a ways-wide striped data path over
// independent FPGA cards (8 MiB channels each), one root port per leg.
func benchInterleaveSet(b *testing.B, ways int, granule uint64) *cxl.InterleaveSet {
	b.Helper()
	ports := make([]*cxl.RootPort, ways)
	for i := range ports {
		card, err := fpga.New(fpga.Options{
			Name:            fmt.Sprintf("agilex7-leg%d", i),
			ChannelCapacity: 8 * units.MiB,
		})
		if err != nil {
			b.Fatal(err)
		}
		ports[i] = cxl.NewRootPort(fmt.Sprintf("rp%d", i), card.Link())
		if err := ports[i].Attach(card); err != nil {
			b.Fatal(err)
		}
	}
	s, err := cxl.NewInterleaveSet("bench-stripe", 0, granule, ports...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkInterleavedBurst measures the striped burst data path: the
// same 64 KiB write+read cycle BenchmarkCXLPortBurst performs per 4 KiB,
// fanned across 1/2/4/8 interleave legs. Every leg's beats still cross
// the modelled wire (encode, CRC, decode) on its own port, so above one
// P the scaling factor is real leg parallelism — compare the ways=1
// GB/s against BenchmarkCXLPortBurst and the higher way counts against
// each other for the curve. At GOMAXPROCS 1 the legs run in turn on the
// caller, so the curve shows the stripe layer's own cost. Both granules
// take one leg path, one burst per 4 KiB of a leg's owned lines; at the
// 256 B granule each burst's beats come from, and land in, 16 separate
// runs of the caller's buffer. -benchmem reads 0 allocs/op at any width.
func BenchmarkInterleavedBurst(b *testing.B) {
	const span = 64 << 10 // per-iteration transfer, each direction
	run := func(b *testing.B, s *cxl.InterleaveSet) {
		buf := make([]byte, span)
		for i := range buf {
			buf[i] = byte(i)
		}
		// Pre-touch so steady state measures the wire, not first-touch
		// page materialisation in the sparse media store.
		if err := s.WriteBurst(s.Base(), buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(2 * span)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := s.Base() + uint64(i%16)*span // cycle a 1 MiB window
			if err := s.WriteBurst(addr, buf); err != nil {
				b.Fatal(err)
			}
			if err := s.ReadBurst(addr, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, ways := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			run(b, benchInterleaveSet(b, ways, 4096))
		})
	}
	b.Run("ways=4/granule=256", func(b *testing.B) {
		run(b, benchInterleaveSet(b, 4, 256))
	})
}

// BenchmarkStripedSTREAM reports the modelled STREAM scaling curve over
// the interleaved Setup #1 variants: 10 local threads against the CXL
// node at 1/2/4/8-way striping (Copy and Triad, App-Direct). The curve
// doubles through the IP-slice-bound region and saturates where
// per-thread demand (Little's law at unchanged latency) takes over.
func BenchmarkStripedSTREAM(b *testing.B) {
	out := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, ways := range []int{1, 2, 4, 8} {
			m, _, err := topology.Setup1(topology.Setup1Options{InterleaveWays: ways})
			if err != nil {
				b.Fatal(err)
			}
			cores, err := numa.PlaceOnSocket(m, 0, 10)
			if err != nil {
				b.Fatal(err)
			}
			e := perf.New(m)
			for _, op := range []stream.Op{stream.Copy, stream.Triad} {
				r, err := e.StreamBandwidth(cores, 2, op.Mix(), perf.AppDirect)
				if err != nil {
					b.Fatal(err)
				}
				out[fmt.Sprintf("ways=%d/%s:GB/s", ways, op)] = r.Total.GBps()
			}
			if n2, err := m.Node(2); err == nil && n2.Stripe != nil {
				n2.Stripe.Close() // modelled bench: the leg workers did no work
			}
		}
	}
	for name, v := range out {
		b.ReportMetric(v, metricName(name))
	}
}

// BenchmarkPoolOpen measures pmemobj_open over the CXL mount: header
// validation, undo-log recovery and the full view load, all through the
// root port's burst path (one media scan — see pmem.Open).
func BenchmarkPoolOpen(b *testing.B) {
	rt, err := NewSetup1(Setup1Options{FPGA: fpga.Options{ChannelCapacity: 8 * units.MiB}})
	if err != nil {
		b.Fatal(err)
	}
	n, ok := rt.CXLNode()
	if !ok {
		b.Fatal("no CXL node")
	}
	const size = 8 << 20
	p, err := rt.CreatePool(n.ID, "bench-open", "bench", size)
	if err != nil {
		b.Fatal(err)
	}
	oid, err := p.Alloc(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Persist(oid, 1<<20); err != nil {
		b.Fatal(err)
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := rt.OpenPool(n.ID, "bench-open", "bench")
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStreamTriadReal runs the real Triad kernel over host memory
// — the data-movement cost of the instrument itself.
func BenchmarkStreamTriadReal(b *testing.B) {
	arr, err := stream.NewVolatileArrays(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	stream.Init(arr)
	b.SetBytes(int64(stream.Triad.BytesPerElement()) * (1 << 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stream.Execute(stream.Triad, arr, stream.DefaultScalar, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPmemAlloc measures constructing a 4 KiB object in a pool on
// Setup #1's 4-way interleaved CXL mount, the step checkpoint.Save takes
// for every new chunk: Alloc, a copy into the view and Persist, which
// moves the object's bytes over the link twice (zeroes, then data),
// against AllocFrom, which moves them once. Each iteration frees the
// object, so the allocator reuses one block. The fragmented rows time
// AllocFrom and Free on a heap whose free list holds 64 holes ahead of
// its free tail (128 live 4 KiB objects, every other one freed): a
// 4 KiB object fills the first hole, and a 4104-byte checkpoint
// descriptor fits none, so first fit passes every hole to reach the
// tail.
func BenchmarkPmemAlloc(b *testing.B) {
	rt, err := NewSetup1(Setup1Options{InterleaveWays: 4, FPGA: fpga.Options{ChannelCapacity: 8 * units.MiB}})
	if err != nil {
		b.Fatal(err)
	}
	n, ok := rt.CXLNode()
	if !ok || n.Stripe == nil {
		b.Fatal("no interleaved CXL node")
	}
	b.Cleanup(n.Stripe.Close)
	p, err := rt.CreatePool(n.ID, "bench-alloc", "bench", 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	run := func(b *testing.B, size int, alloc func() (pmem.OID, error)) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			oid, err := alloc()
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Free(oid); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("alloc-copy-persist/4KiB", func(b *testing.B) {
		run(b, len(src), func() (pmem.OID, error) {
			oid, err := p.Alloc(uint64(len(src)))
			if err != nil {
				return oid, err
			}
			v, err := p.View(oid, uint64(len(src)))
			if err != nil {
				return oid, err
			}
			copy(v, src)
			return oid, p.Persist(oid, uint64(len(src)))
		})
	})
	b.Run("allocfrom/4KiB", func(b *testing.B) {
		run(b, len(src), func() (pmem.OID, error) { return p.AllocFrom(src) })
	})
	b.Run("fragmented", func(b *testing.B) {
		live := make([]pmem.OID, 128)
		for i := range live {
			if live[i], err = p.AllocFrom(src); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < len(live); i += 2 {
			if err := p.Free(live[i]); err != nil {
				b.Fatal(err)
			}
		}
		desc := make([]byte, 4104)
		b.Run("4KiB", func(b *testing.B) {
			run(b, len(src), func() (pmem.OID, error) { return p.AllocFrom(src) })
		})
		b.Run("4104B", func(b *testing.B) {
			run(b, len(desc), func() (pmem.OID, error) { return p.AllocFrom(desc) })
		})
		for i := 1; i < len(live); i += 2 {
			if err := p.Free(live[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
