// Package ras is the reliability/availability/serviceability control
// plane for the memory pool: it closes the loop from fault detection to
// recovery. A patrol scrubber (scrub.go) walks each registered device's
// committed media in the background and surfaces latent poison before a
// demand access can consume it; per-device error counters
// (memdev.Stats) feed a health state machine that walks a device
// through Healthy → Degraded → Evacuating → Offline; structured events
// record every detection and transition for operators (fabricctl
// watch-events) and tests.
//
// The package deliberately knows nothing about CXL topology: callers
// register a device with closures describing how to read its media (the
// striped burst path, a tenant window, or the raw device), how to probe
// a single line, and how to consult its poison list. The fabric manager
// and cluster wiring own the recovery actions (evacuation, hot-remove,
// hot-add); ras owns detection, accounting and policy.
package ras

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/units"
)

// State is a device's position in the health state machine.
type State int32

const (
	// Healthy — error counters below every threshold.
	Healthy State = iota
	// Degraded — a threshold tripped; the device still serves traffic
	// but should be drained.
	Degraded
	// Evacuating — the fabric manager is migrating data off the device
	// while traffic continues.
	Evacuating
	// Offline — drained and removed; no traffic reaches the device.
	Offline
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Evacuating:
		return "evacuating"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// legalTransitions is the state machine's edge set. Evaluate only ever
// takes the Healthy→Degraded edge; the rest are operator/fabric
// actions.
var legalTransitions = map[State][]State{
	Healthy:    {Degraded, Evacuating},
	Degraded:   {Evacuating, Healthy},
	Evacuating: {Offline, Healthy},
	Offline:    {Healthy},
}

// Thresholds are the health state machine's trip points, evaluated
// against the error deltas accumulated since the device last entered
// Healthy. A zero field disables that input.
type Thresholds struct {
	// MaxCorrectable trips on latent errors the patrol scrub caught
	// (poison found before a demand access).
	MaxCorrectable int64
	// MaxUncorrectable trips on errors that reached a consumer: demand
	// poison hits and link errors that exhausted their retries.
	MaxUncorrectable int64
	// MaxLinkRetries trips on CRC retry storms attributed to the
	// device by its owning port.
	MaxLinkRetries int64
	// MaxCommandTimeouts trips on mailbox commands whose deadline
	// expired — an unresponsive command plane usually precedes an
	// unresponsive data plane.
	MaxCommandTimeouts int64
}

// DefaultThresholds: one uncorrectable is already data loss at a
// consumer, so it degrades immediately; a handful of scrub-caught
// latent errors or a burst of link retries indicate dying media or a
// flaky link.
var DefaultThresholds = Thresholds{
	MaxCorrectable:     4,
	MaxUncorrectable:   1,
	MaxLinkRetries:     64,
	MaxCommandTimeouts: 4,
}

// EventKind classifies a RAS event.
type EventKind int

const (
	// EventScrubPoison — patrol scrub localised a latent poisoned line.
	EventScrubPoison EventKind = iota
	// EventScrubPass — a full patrol pass over a device completed.
	EventScrubPass
	// EventStateChange — the device moved in the health state machine.
	EventStateChange
)

func (k EventKind) String() string {
	switch k {
	case EventScrubPoison:
		return "scrub-poison"
	case EventScrubPass:
		return "scrub-pass"
	case EventStateChange:
		return "state-change"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one structured RAS occurrence.
type Event struct {
	Seq    int64
	Device string
	Kind   EventKind
	// DPA is the device-local address for poison events.
	DPA uint64
	// From/To carry the transition for state-change events.
	From, To State
	Detail   string
	// Flits is the flight-recorder dump captured at a Degraded or
	// Evacuating transition — the wire history that preceded the health
	// event (nil when no recorder is attached to the device).
	Flits []telemetry.FlitRecord
}

func (e Event) String() string {
	switch e.Kind {
	case EventScrubPoison:
		return fmt.Sprintf("ras#%d %s: latent poison at dpa %#x", e.Seq, e.Device, e.DPA)
	case EventScrubPass:
		return fmt.Sprintf("ras#%d %s: patrol pass complete (%s)", e.Seq, e.Device, e.Detail)
	case EventStateChange:
		if len(e.Flits) > 0 {
			return fmt.Sprintf("ras#%d %s: %s -> %s (%s) [%d flits captured]", e.Seq, e.Device, e.From, e.To, e.Detail, len(e.Flits))
		}
		return fmt.Sprintf("ras#%d %s: %s -> %s (%s)", e.Seq, e.Device, e.From, e.To, e.Detail)
	default:
		return fmt.Sprintf("ras#%d %s: %s %s", e.Seq, e.Device, e.Kind, e.Detail)
	}
}

// Health is the published snapshot of one device's RAS standing. Like
// link state, it is an immutable value behind an atomic pointer:
// readers never block the scrubber or the state machine.
type Health struct {
	Device string
	State  State
	// Counters are the raw lifetime error counters from memdev.Stats.
	Counters memdev.RASCounters
	// PoisonedLines is how many distinct latent-poisoned lines patrol
	// scrub has localised on this device.
	PoisonedLines int64
	// ScrubbedBytes and Passes describe patrol progress.
	ScrubbedBytes int64
	Passes        int64
}

// DeviceOptions describe how the plane reaches one device's media. All
// hooks are optional; nil fields fall back to the raw memdev interface.
type DeviceOptions struct {
	// Read fetches a stripe [dpa, dpa+len(p)) through whatever path
	// the caller wants patrol traffic to ride (the striped burst path
	// for interleave legs, the tenant window for pool slices). Nil
	// reads the media directly.
	Read func(dpa uint64, p []byte) error
	// Probe reads one line at dpa, for localising a failed stripe.
	// Nil probes via Read.
	Probe func(dpa uint64) error
	// Retries returns the owning port's CRC retry count attributed to
	// this device. Nil uses the media's LinkRetries counter (which the
	// port updates when attached directly).
	Retries func() int64
	// Poisoned reports whether the device's poison list covers dpa
	// (the mailbox's IsPoisoned). Nil means no poison source.
	Poisoned func(dpa uint64) bool
	// Ranges enumerates the committed spans patrol should walk. Nil
	// falls back to the media's RangeLister, then to full capacity.
	Ranges func() []memdev.Range
}

// ScrubConfig tunes the patrol scrubber.
type ScrubConfig struct {
	// Stripe is the bytes fetched per media access (default 4 KiB —
	// one maximal burst, so patrol costs one access per stripe).
	Stripe int
	// Throttle caps patrol bandwidth for the background loop. Zero
	// means unthrottled.
	Throttle units.Bandwidth
}

// DefaultStripe matches the burst path's maximal payload.
const DefaultStripe = 4096

// device is the plane's per-device record.
type device struct {
	name  string
	media memdev.Device
	opts  DeviceOptions

	// dump, when attached, snapshots the owning port's flight recorder;
	// transitions into Degraded/Evacuating capture it into the event.
	dump func() []telemetry.FlitRecord

	health atomic.Pointer[Health]

	// Patrol state, guarded by the plane mutex: the stripe buffer is
	// preallocated so steady-state scrubbing is allocation-free.
	buf    []byte
	ranges []memdev.Range
	ri     int
	off    uint64
	// seen records poisoned lines already counted, so repeat passes
	// over the same latent fault do not inflate Correctable.
	seen map[uint64]struct{}
	// base is the counter snapshot taken when the device last entered
	// Healthy; Evaluate thresholds the delta since then.
	base          memdev.RASCounters
	basePoisoned  int64
	poisonedLines int64
	scrubbedBytes int64
	passes        int64
}

// Plane is the RAS control plane: a registry of devices, their patrol
// scrub state, the health state machine and the event feed.
type Plane struct {
	mu         sync.Mutex
	devs       map[string]*device
	order      []string
	thresholds Thresholds
	cfg        ScrubConfig

	seq    atomic.Int64
	events []Event // bounded ring, oldest dropped

	stop chan struct{}
	wg   sync.WaitGroup
}

// maxEvents bounds the event ring.
const maxEvents = 1024

// NewPlane builds a control plane with the given thresholds and scrub
// configuration (zero values take defaults).
func NewPlane(th Thresholds, cfg ScrubConfig) *Plane {
	if th == (Thresholds{}) {
		th = DefaultThresholds
	}
	if cfg.Stripe <= 0 {
		cfg.Stripe = DefaultStripe
	}
	return &Plane{devs: make(map[string]*device), thresholds: th, cfg: cfg}
}

// Register adds a device to the plane under name. The name keys health
// lookups and events; registering an existing name is an error.
func (p *Plane) Register(name string, media memdev.Device, opts DeviceOptions) error {
	if media == nil {
		return fmt.Errorf("ras: %s: nil media", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.devs[name]; ok {
		return fmt.Errorf("ras: device %s already registered", name)
	}
	d := &device{
		name:  name,
		media: media,
		opts:  opts,
		buf:   make([]byte, p.cfg.Stripe),
		seen:  make(map[uint64]struct{}),
	}
	d.base = d.counters()
	d.publishLocked(Healthy)
	p.devs[name] = d
	p.order = append(p.order, name)
	return nil
}

// Unregister removes a device (hot-remove).
func (p *Plane) Unregister(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.devs[name]; !ok {
		return
	}
	delete(p.devs, name)
	for i, n := range p.order {
		if n == name {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

// counters folds the optional port-retry hook into the media counters.
func (d *device) counters() memdev.RASCounters {
	c := d.media.Stats().RAS()
	if d.opts.Retries != nil {
		c.LinkRetries = d.opts.Retries()
	}
	return c
}

// publishLocked stores a fresh immutable health snapshot. Callers hold
// the plane mutex (or are inside Register before the device is
// visible).
func (d *device) publishLocked(st State) {
	d.health.Store(&Health{
		Device:        d.name,
		State:         st,
		Counters:      d.counters(),
		PoisonedLines: d.poisonedLines,
		ScrubbedBytes: d.scrubbedBytes,
		Passes:        d.passes,
	})
}

// Health returns the device's current snapshot, or a zero Health with
// Offline state for unknown names.
func (p *Plane) Health(name string) Health {
	p.mu.Lock()
	d := p.devs[name]
	p.mu.Unlock()
	if d == nil {
		return Health{Device: name, State: Offline}
	}
	return *d.health.Load()
}

// Devices lists registered device names in registration order.
func (p *Plane) Devices() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.order...)
}

// emitLocked appends an event to the bounded ring.
func (p *Plane) emitLocked(e Event) {
	e.Seq = p.seq.Add(1)
	if len(p.events) >= maxEvents {
		copy(p.events, p.events[1:])
		p.events = p.events[:len(p.events)-1]
	}
	p.events = append(p.events, e)
}

// Events drains and returns the pending event feed.
func (p *Plane) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.events
	p.events = nil
	return out
}

// transitionLocked moves d to next if the edge is legal, publishing the
// snapshot and emitting the event.
func (p *Plane) transitionLocked(d *device, next State, detail string) error {
	cur := d.health.Load().State
	if cur == next {
		return nil
	}
	legal := false
	for _, s := range legalTransitions[cur] {
		if s == next {
			legal = true
			break
		}
	}
	if !legal {
		return fmt.Errorf("ras: %s: illegal transition %s -> %s", d.name, cur, next)
	}
	if next == Healthy {
		// Re-baseline so old error history does not immediately
		// re-degrade a repaired or replaced device.
		d.base = d.counters()
		d.basePoisoned = d.poisonedLines
	}
	d.publishLocked(next)
	e := Event{Device: d.name, Kind: EventStateChange, From: cur, To: next, Detail: detail}
	// A device entering Degraded or Evacuating is the moment the wire
	// history matters: snapshot the attached flight recorder so the
	// event carries what preceded the health change.
	if (next == Degraded || next == Evacuating) && d.dump != nil {
		e.Flits = d.dump()
	}
	p.emitLocked(e)
	return nil
}

// AttachFlightRecorder wires a flight-recorder dump hook to a device:
// every transition into Degraded or Evacuating captures dump() into the
// state-change event. Typically dump is the Dump method of the owning
// port's recorder (cxl.RootPort.FlightRecorder).
func (p *Plane) AttachFlightRecorder(name string, dump func() []telemetry.FlitRecord) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.devs[name]
	if d == nil {
		return fmt.Errorf("ras: unknown device %s", name)
	}
	d.dump = dump
	return nil
}

// RegisterMetrics exposes every registered device's health state,
// lifetime error counters, and patrol progress through the registry.
func (p *Plane) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(e *telemetry.Emitter) {
		for _, name := range p.Devices() {
			h := p.Health(name)
			labels := telemetry.Labels("dev", name)
			e.Gauge("ras_health_state", labels, float64(h.State))
			e.Counter("ras_correctable_total", labels, h.Counters.Correctable)
			e.Counter("ras_uncorrectable_total", labels, h.Counters.Uncorrectable)
			e.Counter("ras_link_retries_total", labels, h.Counters.LinkRetries)
			e.Counter("ras_command_timeouts_total", labels, h.Counters.CommandTimeouts)
			e.Gauge("ras_poisoned_lines", labels, float64(h.PoisonedLines))
			e.Counter("ras_scrubbed_bytes_total", labels, h.ScrubbedBytes)
			e.Counter("ras_scrub_passes_total", labels, h.Passes)
		}
	})
}

// Evaluate runs the threshold policy for one device: a Healthy device
// whose error deltas (since it last entered Healthy) exceed any
// threshold becomes Degraded. Returns the resulting state.
func (p *Plane) Evaluate(name string) (State, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.devs[name]
	if d == nil {
		return Offline, fmt.Errorf("ras: unknown device %s", name)
	}
	cur := d.health.Load().State
	if cur != Healthy {
		return cur, nil
	}
	c := d.counters()
	th := p.thresholds
	var reason string
	switch {
	case th.MaxUncorrectable > 0 && c.Uncorrectable-d.base.Uncorrectable >= th.MaxUncorrectable:
		reason = fmt.Sprintf("uncorrectable errors %d >= %d", c.Uncorrectable-d.base.Uncorrectable, th.MaxUncorrectable)
	case th.MaxCorrectable > 0 && c.Correctable-d.base.Correctable >= th.MaxCorrectable:
		reason = fmt.Sprintf("correctable errors %d >= %d", c.Correctable-d.base.Correctable, th.MaxCorrectable)
	case th.MaxLinkRetries > 0 && c.LinkRetries-d.base.LinkRetries >= th.MaxLinkRetries:
		reason = fmt.Sprintf("link retries %d >= %d", c.LinkRetries-d.base.LinkRetries, th.MaxLinkRetries)
	case th.MaxCommandTimeouts > 0 && c.CommandTimeouts-d.base.CommandTimeouts >= th.MaxCommandTimeouts:
		reason = fmt.Sprintf("command timeouts %d >= %d", c.CommandTimeouts-d.base.CommandTimeouts, th.MaxCommandTimeouts)
	default:
		d.publishLocked(Healthy) // refresh counters in the snapshot
		return Healthy, nil
	}
	if err := p.transitionLocked(d, Degraded, reason); err != nil {
		return cur, err
	}
	return Degraded, nil
}

// EvaluateAll runs Evaluate over every device and returns the names now
// Degraded (newly or already).
func (p *Plane) EvaluateAll() []string {
	var out []string
	for _, name := range p.Devices() {
		if st, err := p.Evaluate(name); err == nil && st != Healthy && st != Offline {
			out = append(out, name)
		}
	}
	return out
}

// MarkEvacuating records that recovery has started draining the device.
func (p *Plane) MarkEvacuating(name, detail string) error {
	return p.mark(name, Evacuating, detail)
}

// MarkOffline records that the device has been drained and removed.
func (p *Plane) MarkOffline(name, detail string) error {
	return p.mark(name, Offline, detail)
}

// MarkHealthy returns a device to service (hot-add of a replacement, or
// an operator clearing a false alarm), re-baselining its counters.
func (p *Plane) MarkHealthy(name, detail string) error {
	return p.mark(name, Healthy, detail)
}

func (p *Plane) mark(name string, st State, detail string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.devs[name]
	if d == nil {
		return fmt.Errorf("ras: unknown device %s", name)
	}
	return p.transitionLocked(d, st, detail)
}

// Start launches the background patrol loop: every interval it scrubs
// a throttle-sized step of each device and re-evaluates thresholds.
// Stop waits for the loop to exit.
func (p *Plane) Start(interval time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	step := int64(0)
	if p.cfg.Throttle > 0 {
		step = int64(float64(p.cfg.Throttle) * interval.Seconds())
	}
	p.stop = make(chan struct{})
	stop := p.stop
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, name := range p.Devices() {
					budget := step
					if budget <= 0 {
						budget = int64(p.cfg.Stripe)
					}
					p.ScrubStep(name, budget)
					p.Evaluate(name)
				}
			}
		}
	}()
}

// Stop halts the background patrol loop.
func (p *Plane) Stop() {
	p.mu.Lock()
	stop := p.stop
	p.stop = nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		p.wg.Wait()
	}
}
