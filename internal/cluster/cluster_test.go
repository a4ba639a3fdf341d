package cluster

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cxlpmem/internal/pmem"
	"cxlpmem/internal/units"
)

// testCluster builds hosts tenants that each hold a fixed 64 MiB share
// of the appliance from the start (Initial == Quota), so the pool is
// fully granted.
func testCluster(t *testing.T, hosts int) *Elastic {
	t.Helper()
	const perHost = 64 * units.MiB
	c, err := NewElastic(ElasticConfig{
		Hosts:   hosts,
		Pool:    units.Size(hosts) * perHost,
		Quota:   perHost,
		Initial: perHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterAssembly(t *testing.T) {
	c := testCluster(t, 4)
	if len(c.Hosts) != 4 {
		t.Fatalf("hosts = %d", len(c.Hosts))
	}
	if c.TotalPooled() != 256*units.MiB {
		t.Errorf("pooled = %v", c.TotalPooled())
	}
	if c.MLD.Remaining() != 0 {
		t.Errorf("remaining = %v", c.MLD.Remaining())
	}
	// Every host has a trained port and its own pool bytes.
	seen := map[uint64]bool{}
	for _, h := range c.Hosts {
		if h.Port.State().String() != "up" {
			t.Errorf("host %d link down", h.Index)
		}
		exts, err := c.Fabric.Extents(h.Tenant.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range exts {
			if seen[x.PoolBase] {
				t.Errorf("pool base %#x reused", x.PoolBase)
			}
			seen[x.PoolBase] = true
		}
	}
	d := c.Describe()
	if !strings.Contains(d, "host3") || !strings.Contains(d, "appliance") {
		t.Errorf("describe:\n%s", d)
	}
}

func TestClusterValidation(t *testing.T) {
	for name, cfg := range map[string]ElasticConfig{
		"0 hosts":            {Hosts: 0, Pool: 16 * units.MiB},
		"17 hosts":           {Hosts: 17, Pool: 16 * units.MiB},
		"unaligned capacity": {Hosts: 2, Pool: 33},
	} {
		if _, err := NewElastic(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestHostsAreIsolated(t *testing.T) {
	c := testCluster(t, 2)
	h0, h1 := c.Hosts[0], c.Hosts[1]
	payload := []byte("host0 private")
	if err := h0.Port.WriteAt(payload, int64(h0.Window.Base)); err != nil {
		t.Fatal(err)
	}
	probe := make([]byte, len(payload))
	if err := h1.Port.ReadAt(probe, int64(h1.Window.Base)); err != nil {
		t.Fatal(err)
	}
	if string(probe) == string(payload) {
		t.Error("host1 sees host0's capacity")
	}
	back := make([]byte, len(payload))
	if err := h0.Port.ReadAt(back, int64(h0.Window.Base)); err != nil {
		t.Fatal(err)
	}
	if string(back) != string(payload) {
		t.Error("host0 lost its own data")
	}
}

func TestPersistentPoolOnPooledMemory(t *testing.T) {
	// The disaggregated use case end to end: a pmemobj pool on a
	// host's pooled capacity survives the host's power loss (the
	// appliance is battery-backed once for everyone, §1.4).
	c := testCluster(t, 2)
	h := c.Hosts[1]
	region := &windowRegion{h: h}
	pool, err := pmem.Create(region, "pooled")
	if err != nil {
		t.Fatal(err)
	}
	oid, err := pool.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.SetUint64(oid, 0, 777); err != nil {
		t.Fatal(err)
	}
	pool.SimulateCrash()
	re, err := pmem.Open(region, "pooled")
	if err != nil {
		t.Fatal(err)
	}
	v, err := re.GetUint64(oid, 0)
	if err != nil || v != 777 {
		t.Errorf("recovered = %d, %v", v, err)
	}
}

// windowRegion adapts a host's pooled window to pmem.Region.
type windowRegion struct {
	h *ElasticHost
}

func (r *windowRegion) ReadAt(p []byte, off int64) error {
	return r.h.Port.ReadAt(p, int64(r.h.Window.Base)+off)
}
func (r *windowRegion) WriteAt(p []byte, off int64) error {
	return r.h.Port.WriteAt(p, int64(r.h.Window.Base)+off)
}
func (r *windowRegion) Size() int64      { return int64(r.h.Window.Size) }
func (r *windowRegion) Persistent() bool { return r.h.Tenant.Device().Persistent() }

func TestScalabilityShape(t *testing.T) {
	c := testCluster(t, 4)
	pts, err := c.Scalability(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Aggregate grows (or holds) with host count; per-host never grows.
	for i := 1; i < len(pts); i++ {
		if pts[i].Aggregate < pts[i-1].Aggregate-units.GBps(0.01) {
			t.Errorf("aggregate shrank at k=%d: %v -> %v", i+1, pts[i-1].Aggregate, pts[i].Aggregate)
		}
		if pts[i].PerHost > pts[i-1].PerHost+units.GBps(0.01) {
			t.Errorf("per-host grew at k=%d", i+1)
		}
	}
	// The appliance pipeline caps the aggregate.
	last := pts[len(pts)-1]
	if last.Aggregate.GBps() > ApplianceIPCapGBps*1.1 {
		t.Errorf("aggregate %.1f exceeds appliance cap", last.Aggregate.GBps())
	}
	// With 4 hosts the pipeline is contended: per-host well below solo.
	if last.PerHost >= pts[0].PerHost {
		t.Error("no contention visible at 4 hosts")
	}
}

func TestRunParallelMeasuredVsAnalytical(t *testing.T) {
	c := testCluster(t, 4)
	const perHost = 4 << 20 // 4 MiB each, enough bursts to be stable
	pt, err := c.RunParallel(4, perHost)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Hosts != 4 || len(pt.PerHost) != 4 {
		t.Fatalf("point shape: %+v", pt)
	}
	if pt.Elapsed <= 0 || pt.Aggregate <= 0 {
		t.Fatalf("no throughput measured: %+v", pt)
	}
	var sum units.Bandwidth
	for i, bw := range pt.PerHost {
		if bw <= 0 {
			t.Errorf("host %d achieved no throughput", i)
		}
		sum += bw
	}
	// The switch arbitrates round-robin and the shares are symmetric,
	// so no host may starve: each host must achieve at least a small
	// fraction of the mean (loose bound — single-core CI runners
	// schedule goroutines unevenly).
	mean := sum / units.Bandwidth(len(pt.PerHost))
	for i, bw := range pt.PerHost {
		if bw < mean/20 {
			t.Errorf("host %d starved: %v vs mean %v", i, bw, mean)
		}
	}
	// Every host is timed from the shared start, so the last to finish
	// spent nearly the whole run: its rate is the aggregate's 1/k share,
	// also where the hosts ran one after another.
	share := pt.Aggregate / units.Bandwidth(pt.Hosts)
	if last := slices.Min(pt.PerHost); last < share || last > share*1.05 {
		t.Errorf("last host to finish read %v, want the aggregate's 1/%d share %v", last, pt.Hosts, share)
	}
	// The analytical model of the same cluster shares the pipeline
	// evenly too: at k hosts each gets exactly 1/k of the aggregate.
	pts, err := c.Scalability(10)
	if err != nil {
		t.Fatal(err)
	}
	model := pts[pt.Hosts-1]
	if model.Hosts != pt.Hosts || model.Aggregate <= 0 ||
		model.PerHost*units.Bandwidth(model.Hosts) < model.Aggregate*0.999 {
		t.Errorf("analytical row for %d hosts = %+v, want an even split", pt.Hosts, model)
	}
	// Data integrity: every tenant device saw exactly its own host's
	// written bytes (half the moved bytes are writes), and each host
	// reads back the pattern it drove, not another host's.
	got := make([]byte, 4096)
	for i, h := range c.Hosts {
		if _, _, _, wrote := h.Tenant.Device().Stats().Snapshot(); wrote != perHost/2 {
			t.Errorf("host %d media writes = %d, want %d", i, wrote, perHost/2)
		}
		if err := h.Port.ReadBurst(h.Window.Base, got); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(got))
		for j := range want {
			want[j] = byte(i + j)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("host %d reads back another pattern: % x…", i, got[:8])
		}
	}
}

func TestRunParallelValidation(t *testing.T) {
	c := testCluster(t, 2)
	if _, err := c.RunParallel(3, 1<<20); err == nil {
		t.Error("host count beyond cluster accepted")
	}
	if _, err := c.RunParallel(1, 100); err == nil {
		t.Error("non-burst-multiple byte count accepted")
	}
}
