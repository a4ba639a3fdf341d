package chaos

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cxlpmem/internal/cxl"
)

// Per-action default durations, used when a rule leaves Delay zero.
const (
	defaultDelay = 200 * time.Microsecond
	defaultFlap  = time.Millisecond
	defaultStall = time.Millisecond
)

// Synthetic kind bytes for non-flit fire records.
const (
	kindMailbox = 0xFE
	kindMedia   = 0xFD
)

// maxSchedule bounds the fire log; fires beyond it are counted but not
// recorded.
const maxSchedule = 1 << 16

// Fire is one entry of the fault schedule: which rule fired, on which
// match ordinal, against which event.
type Fire struct {
	Seq    uint64
	Rule   int
	Site   Site
	Action Action
	// Match is the rule's 1-based match ordinal that fired.
	Match uint64
	// Kind is the wire flit kind byte (kindMailbox/kindMedia for
	// command/media fires).
	Kind uint8
	// Addr is the event address (flit HPA, mailbox opcode, poison DPA,
	// the DPA of the write a power cut dropped first).
	Addr uint64
}

func (f Fire) String() string {
	return fmt.Sprintf("#%d r%d %s/%s m%d k%02x @%#x", f.Seq, f.Rule, f.Site, f.Action, f.Match, f.Kind, f.Addr)
}

// ruleState is one rule's live counters plus the reorder hold buffer.
type ruleState struct {
	idx int
	r   Rule

	matches   atomic.Uint64
	fired     atomic.Uint64
	exhausted atomic.Bool

	mu      sync.Mutex
	held    cxl.Flit
	heldSet bool

	// atts lists the attachments carrying this rule, for live-rule
	// accounting (guarded by Engine.mu).
	atts []*attachment
}

// attachment tracks one armed hook: how many of its rules can still
// fire, and how to take the hook back out when none can.
type attachment struct {
	live      atomic.Int32
	uninstall func()
}

// mediaAttach is one media site: its poison injector and rules, fired
// by Pulse.
type mediaAttach struct {
	name   string
	poison func(dpa uint64) error
	rules  []*ruleState
}

// Engine compiles a Plan and arms it against live components. Attach
// everything before starting traffic; hooks themselves are safe to fire
// concurrently from any number of transactions.
type Engine struct {
	plan  Plan
	rules []*ruleState

	mu    sync.Mutex
	fires []Fire
	nfire uint64
	atts  []*attachment
	media []*mediaAttach

	// powerLost latches once a power-cut rule fires: every device
	// AttachDevice armed drops its media writes from then on.
	powerLost atomic.Bool
}

// NewEngine validates the plan and compiles its rule state.
func NewEngine(plan Plan) (*Engine, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	e := &Engine{plan: Plan{Seed: plan.Seed, Rules: append([]Rule(nil), plan.Rules...)}}
	for i := range e.plan.Rules {
		e.rules = append(e.rules, &ruleState{idx: i, r: e.plan.Rules[i]})
	}
	return e, nil
}

// decide consumes one match ordinal for the rule and reports whether it
// fires — a pure function of (seed, rule index, ordinal), so the same
// event stream replays the same schedule.
func (e *Engine) decide(rs *ruleState) (uint64, bool) {
	m := rs.matches.Add(1)
	t := &rs.r.Trigger
	var fire bool
	switch {
	case t.Nth > 0 && t.Every > 0:
		fire = m >= t.Nth && (m-t.Nth)%t.Every == 0
	case t.Nth > 0:
		fire = m == t.Nth
	case t.Every > 0:
		fire = m%t.Every == 0
	default:
		fire = unit(e.plan.Seed, uint64(rs.idx), m) < t.Prob
	}
	oneShot := t.Nth > 0 && t.Every == 0
	if !fire {
		if oneShot && m >= t.Nth {
			e.exhaust(rs)
		}
		return m, false
	}
	if t.Count > 0 {
		n := rs.fired.Add(1)
		if n > t.Count {
			e.exhaust(rs)
			return m, false
		}
		if n == t.Count {
			e.exhaust(rs)
		}
	} else if oneShot {
		e.exhaust(rs)
	}
	return m, true
}

// exhaust retires a rule; an attachment whose last live rule retires
// uninstalls its hook, restoring the exact pre-chaos data path.
func (e *Engine) exhaust(rs *ruleState) {
	if !rs.exhausted.CompareAndSwap(false, true) {
		return
	}
	e.mu.Lock()
	atts := append([]*attachment(nil), rs.atts...)
	e.mu.Unlock()
	for _, at := range atts {
		if at.live.Add(-1) == 0 {
			at.uninstall()
		}
	}
}

// record appends one fire to the schedule log.
func (e *Engine) record(rs *ruleState, m uint64, kind uint8, addr uint64) {
	e.mu.Lock()
	seq := e.nfire
	e.nfire++
	if len(e.fires) < maxSchedule {
		e.fires = append(e.fires, Fire{Seq: seq, Rule: rs.idx, Site: rs.r.Site, Action: rs.r.Action, Match: m, Kind: kind, Addr: addr})
	}
	e.mu.Unlock()
}

// ScheduleString renders the fire log so far one fire per line — the
// replay determinism witness (two runs with the same seed and event
// stream produce byte-identical strings).
func (e *Engine) ScheduleString() string {
	e.mu.Lock()
	fires := append([]Fire(nil), e.fires...)
	e.mu.Unlock()
	var b strings.Builder
	for _, f := range fires {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Fires returns the total number of fires (recorded or not).
func (e *Engine) Fires() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nfire
}

// rulesFor selects the live rules for an attachment and registers it
// for live-rule accounting. Returns nil when nothing can fire there.
func (e *Engine) rulesFor(target string, uninstall func(), sites ...Site) ([]*ruleState, *attachment) {
	var rules []*ruleState
	for _, rs := range e.rules {
		siteOK := false
		for _, s := range sites {
			if rs.r.Site == s {
				siteOK = true
				break
			}
		}
		if !siteOK || (rs.r.Target != "" && rs.r.Target != target) {
			continue
		}
		rules = append(rules, rs)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	at := &attachment{uninstall: uninstall}
	live := int32(0)
	e.mu.Lock()
	for _, rs := range rules {
		if !rs.exhausted.Load() {
			rs.atts = append(rs.atts, at)
			live++
		}
	}
	e.mu.Unlock()
	if live == 0 {
		return nil, nil
	}
	at.live.Store(live)
	e.mu.Lock()
	e.atts = append(e.atts, at)
	e.mu.Unlock()
	return rules, at
}

// AttachPort arms the plan's port and link rules against a root port
// (its SetFault slot — the engine supersedes ad-hoc fault hooks there).
func (e *Engine) AttachPort(rp *cxl.RootPort) {
	rules, _ := e.rulesFor(rp.Name(), func() { rp.SetFault(nil) }, SitePort, SiteLink)
	if rules == nil {
		return
	}
	rp.SetFault(e.portHook(rp, rules))
}

// portHook builds the per-flit hook for one port.
func (e *Engine) portHook(rp *cxl.RootPort, rules []*ruleState) func(cxl.Flit) cxl.Flit {
	return func(f cxl.Flit) cxl.Flit {
		for _, rs := range rules {
			if rs.exhausted.Load() {
				continue
			}
			t := &rs.r.Trigger
			if t.Kind != 0 && uint8(t.Kind-1) != f.PeekKind() {
				continue
			}
			if t.AddrHi > 0 {
				if a := f.PeekAddr(); a < t.AddrLo || a >= t.AddrHi {
					continue
				}
			}
			m, fire := e.decide(rs)
			if !fire {
				continue
			}
			e.record(rs, m, f.PeekKind(), f.PeekAddr())
			switch rs.r.Action {
			case ActCorrupt:
				f.FlipBit(uint(mix(e.plan.Seed ^ (uint64(rs.idx)<<32 + m))))
			case ActDrop:
				f.Erase()
			case ActDelay:
				time.Sleep(delayOr(rs.r.Delay, defaultDelay))
			case ActReorder:
				rs.mu.Lock()
				if rs.heldSet {
					f, rs.held = rs.held, f
				} else {
					rs.held, rs.heldSet = f, true
				}
				rs.mu.Unlock()
			case ActFlap:
				if rp.StartRetrain() == nil {
					time.AfterFunc(delayOr(rs.r.Delay, defaultFlap), func() { rp.CompleteRetrain(true) })
				}
			case ActRemove:
				rp.Detach()
			}
		}
		return f
	}
}

// AttachSwitch arms the plan's snoop rules against a switch's
// back-invalidate channel.
func (e *Engine) AttachSwitch(sw *cxl.Switch) {
	rules, _ := e.rulesFor(sw.Name(), func() { sw.SetSnoopFault(nil) }, SiteSnoop)
	if rules == nil {
		return
	}
	sw.SetSnoopFault(func(f cxl.Flit) cxl.Flit {
		for _, rs := range rules {
			if rs.exhausted.Load() {
				continue
			}
			t := &rs.r.Trigger
			if t.Kind != 0 && uint8(t.Kind-1) != f.PeekKind() {
				continue
			}
			if t.AddrHi > 0 {
				if a := f.PeekAddr(); a < t.AddrLo || a >= t.AddrHi {
					continue
				}
			}
			m, fire := e.decide(rs)
			if !fire {
				continue
			}
			e.record(rs, m, f.PeekKind(), f.PeekAddr())
			switch rs.r.Action {
			case ActCorrupt:
				f.FlipBit(uint(mix(e.plan.Seed ^ (uint64(rs.idx)<<32 + m))))
			case ActDrop:
				f.Erase()
			case ActDelay:
				time.Sleep(delayOr(rs.r.Delay, defaultDelay))
			}
		}
		return f
	})
}

// AttachMailbox arms the plan's mailbox and fabric rules against a
// device command mailbox. Fabric rules only match the dynamic-capacity
// opcodes (the fabric manager's tenant command plane).
func (e *Engine) AttachMailbox(name string, mb *cxl.Mailbox) {
	rules, _ := e.rulesFor(name, func() { mb.SetFault(nil) }, SiteMailbox, SiteFabric)
	if rules == nil {
		return
	}
	mb.SetFault(func(op cxl.MailboxOpcode) (cxl.MailboxStatus, bool) {
		for _, rs := range rules {
			if rs.exhausted.Load() {
				continue
			}
			if rs.r.Site == SiteFabric && (op < cxl.OpGetDCDConfig || op > cxl.OpReleaseDCD) {
				continue
			}
			t := &rs.r.Trigger
			if t.Op != 0 && cxl.MailboxOpcode(t.Op) != op {
				continue
			}
			m, fire := e.decide(rs)
			if !fire {
				continue
			}
			e.record(rs, m, kindMailbox, uint64(op))
			switch rs.r.Action {
			case ActStall:
				time.Sleep(delayOr(rs.r.Delay, defaultStall))
			case ActGarble:
				return cxl.MboxInternalError, true
			}
		}
		return 0, false
	})
}

// AttachMedia arms the plan's poison rules against one device, with
// poison planting latent corruption at a line-aligned DPA. Poison rules
// have no event stream of their own; Pulse advances them.
func (e *Engine) AttachMedia(name string, poison func(dpa uint64) error) {
	var rules []*ruleState
	for _, rs := range e.rules {
		if rs.r.Action == ActPoison && (rs.r.Target == "" || rs.r.Target == name) {
			rules = append(rules, rs)
		}
	}
	if len(rules) == 0 {
		return
	}
	e.mu.Lock()
	e.media = append(e.media, &mediaAttach{name: name, poison: poison, rules: rules})
	e.mu.Unlock()
}

// Pulse advances every media rule by one match, planting poison for the
// ones that fire. The injection DPA is a pure function of (seed, rule,
// ordinal) inside the rule's address window.
func (e *Engine) Pulse() {
	e.mu.Lock()
	media := append([]*mediaAttach(nil), e.media...)
	e.mu.Unlock()
	for _, ma := range media {
		for _, rs := range ma.rules {
			if rs.exhausted.Load() {
				continue
			}
			m, fire := e.decide(rs)
			if !fire {
				continue
			}
			t := &rs.r.Trigger
			lines := (t.AddrHi - t.AddrLo) / 64
			if lines == 0 {
				lines = 1
			}
			dpa := (t.AddrLo + (mix(e.plan.Seed^(uint64(rs.idx)<<32+m))%lines)*64) &^ 63
			e.record(rs, m, kindMedia, dpa)
			_ = ma.poison(dpa)
		}
	}
}

// AttachDevice arms the plan's power cut against a Type-3 device's
// media writes (its SetPowerCut slot). Every device the engine attaches
// shares one cut, since a power loss hits them together: each media
// write on any of them is one match of every power-cut rule that
// targets its device, so a rule's Nth match is the Nth write across
// them, and once a rule fires, that write and every later one on every
// attached device is dropped. The cut stays armed after its rules are
// spent; Disarm removes it.
func (e *Engine) AttachDevice(d *cxl.Type3Device) {
	var rules []*ruleState
	armed := false
	for _, rs := range e.rules {
		if rs.r.Action != ActPowerCut {
			continue
		}
		armed = true
		if rs.r.Target == "" || rs.r.Target == d.Name() {
			rules = append(rules, rs)
		}
	}
	if !armed {
		return
	}
	e.mu.Lock()
	e.atts = append(e.atts, &attachment{uninstall: func() { d.SetPowerCut(nil) }})
	e.mu.Unlock()
	d.SetPowerCut(func(dpa uint64) bool {
		if e.powerLost.Load() {
			return true
		}
		for _, rs := range rules {
			if rs.exhausted.Load() {
				continue
			}
			if m, fire := e.decide(rs); fire {
				e.record(rs, m, kindMedia, dpa)
				e.powerLost.Store(true)
				return true
			}
		}
		return false
	})
}

// Disarm uninstalls every hook the engine armed, regardless of rule
// exhaustion, the power cut's included. Safe to call more than once.
func (e *Engine) Disarm() {
	e.mu.Lock()
	atts := e.atts
	e.atts = nil
	e.mu.Unlock()
	for _, at := range atts {
		at.uninstall()
	}
}

func delayOr(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}
