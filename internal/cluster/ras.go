package cluster

import (
	"fmt"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/units"
)

// RAS wiring for the elastic pool: EnableRAS registers every pool
// device and every tenant window with a ras.Plane, so patrol scrub
// rides the real data paths (appliance media directly, tenant windows
// through their root ports) and link-retry storms are attributed to the
// tenant whose port saw them. Recovery composes the pieces the lower
// layers already provide: EvacuatePool re-homes extents onto spare
// pools while traffic continues, with the plane tracking the device
// through Degraded → Evacuating → Offline.

// EnableRAS builds a RAS control plane over the pool: one registration
// per fabric pool (scrubbed directly on the appliance media) and one
// per tenant window (scrubbed through the tenant's root port, so patrol
// exercises link, switch and DCD mapping — and retry storms land on the
// right tenant). Callers step patrol with ScrubPass and run the
// threshold policy with Evaluate.
func (e *Elastic) EnableRAS(th ras.Thresholds) (*ras.Plane, error) {
	p := ras.NewPlane(th)
	for _, name := range e.Fabric.Pools() {
		media, ok := e.Fabric.PoolMedia(name)
		if !ok {
			return nil, fmt.Errorf("cluster: pool %s has no media", name)
		}
		if err := p.Register("pool:"+name, media, ras.DeviceOptions{}); err != nil {
			return nil, err
		}
	}
	for _, h := range e.Hosts {
		h := h
		dev := h.Tenant.Device()
		rl, _ := dev.(memdev.RangeLister)
		mbox := h.Tenant.Mailbox()
		opts := ras.DeviceOptions{
			Read: func(dpa uint64, buf []byte) error {
				// Pre-screen with the poison list the endpoint's burst
				// span-checker consults anyway: the patrol read is not a
				// consumer, so a latent fault it trips over must count as
				// correctable (via the Poisoned hook), not as a demand
				// uncorrectable on the tenant's counters.
				if mbox.HasPoisonIn(dpa, uint64(len(buf))) {
					return fmt.Errorf("cluster: patrol: poison in [%#x, %#x)", dpa, dpa+uint64(len(buf)))
				}
				return h.Port.ReadBurst(h.Window.Base+dpa, buf)
			},
			Probe: func(dpa uint64) error {
				var line [cxl.LineSize]byte
				return h.Port.ReadLine(h.Window.Base+dpa, &line)
			},
			Retries:  func() int64 { return h.Port.Stats().Retries },
			Poisoned: mbox.IsPoisoned,
		}
		if rl != nil {
			opts.Ranges = rl.Committed
		}
		if err := p.Register("tenant:"+h.Tenant.Name(), dev, opts); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// AddSparePool provisions a fresh battery-backed appliance device of
// the given capacity and registers it with the fabric as a grant and
// evacuation target. Returns the new MLD.
func (e *Elastic) AddSparePool(name string, size units.Size) (*cxl.MLD, error) {
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               name + "-ddr4",
		Rate:               3200,
		Channels:           4,
		CapacityPerChannel: size / 4,
		IdleLatency:        units.Nanoseconds(105),
		BatteryBacked:      true,
	})
	if err != nil {
		return nil, err
	}
	mld, err := cxl.NewMLD(name, media)
	if err != nil {
		return nil, err
	}
	if err := e.Fabric.AddPool(mld); err != nil {
		return nil, err
	}
	return mld, nil
}

// EvacuatePool drains the named pool onto the remaining healthy pools
// under traffic, driving the plane's state machine around the move:
// Evacuating while extents migrate, Offline once the pool is empty. A
// nil plane just performs the migration.
func (e *Elastic) EvacuatePool(p *ras.Plane, name string) (moved int, err error) {
	dev := "pool:" + name
	if p != nil {
		if h := p.Health(dev); h.State == ras.Healthy {
			// An operator-initiated drain of a healthy device: record the
			// degradation so the state history stays truthful.
			_ = p.MarkEvacuating(dev, "operator-initiated evacuation")
		} else {
			_ = p.MarkEvacuating(dev, "draining degraded pool")
		}
	}
	moved, err = e.Fabric.EvacuatePool(name)
	if p != nil {
		if err != nil {
			_ = p.MarkHealthy(dev, fmt.Sprintf("evacuation aborted: %v", err))
		} else {
			_ = p.MarkOffline(dev, fmt.Sprintf("evacuated %d extents", moved))
		}
	}
	return moved, err
}
