// Package chaos is the fabric's seeded, deterministic fault-injection
// engine: the successor of the ad-hoc per-port SetFault hooks scattered
// through the test suite. A fault Plan is a list of Rules, each a
// (site, trigger, action) triple: the site names where in the stack the
// fault lands (port flit path, link state machine, mailbox, snoop
// channel, device media, fabric command plane), the trigger decides
// which matching events fire as a pure function of a seeded PRNG and
// the event's ordinal/predicate — so the same seed replays the
// identical fault schedule, byte for byte, under -race and across
// machines — and the action is what breaks (corrupt, drop, delay,
// reorder, flap, surprise-remove, stall, garble, latent poison, power
// cut).
//
// The Engine compiles a Plan and arms it against live components
// (AttachPort, AttachSwitch, AttachMailbox, AttachMedia, AttachDevice).
// Every fire is appended to a bounded schedule log (ScheduleString),
// which is both the replay-determinism witness and the operator's view
// of what the plan did. When every rule of an attachment is exhausted
// the engine uninstalls its hooks, so a drained plan costs the data
// path nothing — the property the CI no-fault-overhead gate pins. A
// power cut is the exception: once fired it stays until Disarm.
package chaos

import (
	"fmt"
	"time"
)

// Site names the layer a rule's faults land in.
type Site uint8

const (
	// SitePort — the CXL.mem flit path of a root port (corrupt, drop,
	// delay, reorder; detected by CRC/tag checks, recovered by the LRSM
	// retry budget).
	SitePort Site = iota
	// SiteLink — the link state machine (flap into Retraining,
	// surprise-remove mid-flight; recovered by park-and-replay, or
	// failed cleanly with ErrLinkDown).
	SiteLink
	// SiteMailbox — the device command plane (stall, garbled response;
	// bounded by ExecuteTimeout command deadlines).
	SiteMailbox
	// SiteSnoop — the switch's back-invalidate channel (corrupt, drop,
	// delay; a failed snoop fails the acquire that sent it).
	SiteSnoop
	// SiteMedia — device media (latent stuck-at poison, surfaced by
	// patrol scrub or a demand read, fired by Engine.Pulse; a power cut,
	// fired by the media writes themselves).
	SiteMedia
	// SiteFabric — the fabric manager's tenant command plane: mailbox
	// faults restricted to the dynamic-capacity opcodes, modelling an
	// unresponsive tenant (recovered by command deadlines feeding RAS
	// health thresholds).
	SiteFabric
)

func (s Site) String() string {
	switch s {
	case SitePort:
		return "port"
	case SiteLink:
		return "link"
	case SiteMailbox:
		return "mailbox"
	case SiteSnoop:
		return "snoop"
	case SiteMedia:
		return "media"
	case SiteFabric:
		return "fabric"
	default:
		return fmt.Sprintf("Site(%d)", uint8(s))
	}
}

// ParseSite resolves a site name (as printed by String).
func ParseSite(s string) (Site, error) {
	for _, c := range []Site{SitePort, SiteLink, SiteMailbox, SiteSnoop, SiteMedia, SiteFabric} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown site %q", s)
}

// Action is what a fired rule does to its site.
type Action uint8

const (
	// ActCorrupt flips one bit of the flit (single-event upset): the
	// receiver's CRC catches it and the LRSM retransmits.
	ActCorrupt Action = iota
	// ActDrop zeroes the flit (lost on the wire): decode fails outright,
	// driving the same retry path with nothing recoverable in flight.
	ActDrop
	// ActDelay holds the flit for the rule's Delay before passing it on.
	ActDelay
	// ActReorder swaps the flit with the previously held matching flit:
	// a transient protocol violation the tag/sequence checks detect.
	ActReorder
	// ActFlap drops the link into Retraining for the rule's Delay, then
	// brings it back up; transactions issued meanwhile park and replay.
	ActFlap
	// ActRemove surprise-removes the endpoint (Detach) mid-flight:
	// later and parked transactions fail with ErrLinkDown.
	ActRemove
	// ActStall sleeps the rule's Delay before letting the command
	// execute (a slow mailbox; command deadlines bound the damage).
	ActStall
	// ActGarble answers the command with an internal error in the
	// device's stead.
	ActGarble
	// ActPoison plants latent poison at a deterministic address inside
	// the rule's [AddrLo, AddrHi) window (fired by Pulse).
	ActPoison
	// ActPowerCut cuts power to every device AttachDevice armed: the
	// media write it fires on, and every later one, is dropped while the
	// devices answer as if it had landed. Its matches are the media
	// writes of the data path, counted across the devices.
	ActPowerCut
)

func (a Action) String() string {
	switch a {
	case ActCorrupt:
		return "corrupt"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActReorder:
		return "reorder"
	case ActFlap:
		return "flap"
	case ActRemove:
		return "remove"
	case ActStall:
		return "stall"
	case ActGarble:
		return "garble"
	case ActPoison:
		return "poison"
	case ActPowerCut:
		return "power-cut"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// ParseAction resolves an action name (as printed by String).
func ParseAction(s string) (Action, error) {
	for _, c := range []Action{ActCorrupt, ActDrop, ActDelay, ActReorder, ActFlap, ActRemove, ActStall, ActGarble, ActPoison, ActPowerCut} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown action %q", s)
}

// siteActions is the site/action compatibility matrix validate enforces.
var siteActions = map[Site][]Action{
	SitePort:    {ActCorrupt, ActDrop, ActDelay, ActReorder},
	SiteLink:    {ActFlap, ActRemove},
	SiteMailbox: {ActStall, ActGarble},
	SiteSnoop:   {ActCorrupt, ActDrop, ActDelay},
	SiteMedia:   {ActPoison, ActPowerCut},
	SiteFabric:  {ActStall, ActGarble},
}

// Trigger decides which matching events fire. The match stream is the
// site's event stream (flits for port/link/snoop, commands for
// mailbox/fabric, Pulse ticks for poison, media writes for a power
// cut); each rule counts its own matches, and the fire decision is a
// pure function of the plan seed, the rule index and the match ordinal
// — no wall clock, no global RNG.
type Trigger struct {
	// Nth fires on the Nth matching event (1-based). With Every it is
	// the phase: fire on Nth, Nth+Every, Nth+2·Every, …
	Nth uint64
	// Every fires on every Every-th match (when Nth is 0: Every,
	// 2·Every, …).
	Every uint64
	// Prob fires each match with this probability, decided by the
	// seeded PRNG; used when Nth and Every are both 0.
	Prob float64
	// Count caps total fires (0 = unlimited). A rule at its cap is
	// exhausted; when all of an attachment's rules are exhausted its
	// hooks are uninstalled.
	Count uint64
	// Kind filters flit kinds: 0 matches any; otherwise 1 + the wire
	// kind byte.
	Kind int16
	// Op filters mailbox opcodes (0 = any).
	Op uint16
	// AddrLo/AddrHi filter the event address to [AddrLo, AddrHi) when
	// AddrHi > 0. For ActPoison, this is the poison placement window; a
	// power cut takes none, since power fails for every address at once.
	AddrLo, AddrHi uint64
}

// Rule arms one fault: Action at Site when Trigger fires. Delay is the
// action duration where one applies (delay/stall length, flap retrain
// time); zero takes a per-action default. Target restricts the rule to
// one named attachment ("" = all).
type Rule struct {
	Site    Site
	Action  Action
	Trigger Trigger
	Delay   time.Duration
	Target  string
}

// Plan is a complete fault schedule: a seed and the rules it drives.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// validate checks site/action compatibility and trigger sanity.
func (p *Plan) validate() error {
	for i, r := range p.Rules {
		ok := false
		for _, a := range siteActions[r.Site] {
			if a == r.Action {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("chaos: rule %d: action %s invalid at site %s", i, r.Action, r.Site)
		}
		t := r.Trigger
		if t.Prob < 0 || t.Prob > 1 {
			return fmt.Errorf("chaos: rule %d: probability %v outside [0,1]", i, t.Prob)
		}
		if t.Nth == 0 && t.Every == 0 && t.Prob == 0 {
			return fmt.Errorf("chaos: rule %d: trigger never fires (set Nth, Every or Prob)", i)
		}
		if t.AddrHi > 0 && t.AddrHi <= t.AddrLo {
			return fmt.Errorf("chaos: rule %d: empty address window [%#x, %#x)", i, t.AddrLo, t.AddrHi)
		}
		if r.Action == ActPoison && t.AddrHi == 0 {
			return fmt.Errorf("chaos: rule %d: media poison needs an address window", i)
		}
		if r.Action == ActPowerCut && t.AddrHi > 0 {
			return fmt.Errorf("chaos: rule %d: a power cut takes no address window", i)
		}
		if r.Delay < 0 {
			return fmt.Errorf("chaos: rule %d: negative delay", i)
		}
	}
	return nil
}

// mix is the splitmix64 finalizer: the engine's only source of
// randomness, keyed purely by (seed, rule, ordinal).
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// unit maps (seed, rule, match) to a uniform float in [0, 1).
func unit(seed, rule, match uint64) float64 {
	h := mix(seed ^ mix(rule*0x9e3779b97f4a7c15+match))
	return float64(h>>11) / float64(1<<53)
}
