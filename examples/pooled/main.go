// Pooled memory across hosts — the paper's §6 future-work scenario:
// four compute nodes reach one battery-backed CXL memory appliance
// through a CXL switch, the fabric manager granting each host a fixed
// 256 MiB share as dynamic-capacity extents. Each host creates its own
// persistent pool on its share, one host crashes and recovers, and the
// scale-out model shows the shared-pipeline contention.
package main

import (
	"fmt"
	"log"

	"cxlpmem/internal/cluster"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/units"
)

func main() {
	log.SetFlags(0)
	const perHost = 256 * units.MiB
	c, err := cluster.NewElastic(cluster.ElasticConfig{
		Hosts:   4,
		Pool:    4 * perHost,
		Quota:   perHost,
		Initial: perHost,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.Describe())

	// Every host writes a private persistent pool on its share.
	for _, h := range c.Hosts {
		region := hostRegion{h}
		pool, err := pmem.Create(region, "pooled-demo")
		if err != nil {
			log.Fatal(err)
		}
		oid, err := pool.Alloc(64)
		if err != nil {
			log.Fatal(err)
		}
		if err := pool.SetUint64(oid, 0, uint64(1000+h.Index)); err != nil {
			log.Fatal(err)
		}
		if h.Index == 2 {
			// Host 2 loses power; the appliance battery keeps its
			// share intact.
			pool.SimulateCrash()
			re, err := pmem.Open(region, "pooled-demo")
			if err != nil {
				log.Fatal(err)
			}
			v, err := re.GetUint64(oid, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("host2 recovered its pooled state after power loss: %d\n", v)
		}
	}

	fmt.Println("\nscale-out (Triad, 10 threads/host):")
	pts, err := c.Scalability(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s %14s %14s\n", "hosts", "per-host GB/s", "aggregate GB/s")
	for _, p := range pts {
		fmt.Printf("%8d %14.2f %14.2f\n", p.Hosts, p.PerHost.GBps(), p.Aggregate.GBps())
	}
	fmt.Println("\nthe appliance pipeline saturates; per-host bandwidth decays as hosts join —")
	fmt.Println("the §6 scalability question, quantified.")
}

type hostRegion struct {
	h *cluster.ElasticHost
}

func (r hostRegion) ReadAt(p []byte, off int64) error {
	return r.h.Port.ReadAt(p, int64(r.h.Window.Base)+off)
}
func (r hostRegion) WriteAt(p []byte, off int64) error {
	return r.h.Port.WriteAt(p, int64(r.h.Window.Base)+off)
}
func (r hostRegion) Size() int64      { return int64(r.h.Window.Size) }
func (r hostRegion) Persistent() bool { return r.h.Tenant.Device().Persistent() }
