package fabric

import (
	"fmt"
	"strings"

	"cxlpmem/internal/memdev"
)

// MemTypes is a per-tenant memory-technology request mask, the
// memtier-style `"dram,cxl"` / `"cxl,pmem"` annotation: which media
// kinds the fabric manager may grant the tenant capacity from. The
// zero value means no restriction.
type MemTypes uint8

const (
	// MemDRAM allows conventional DRAM-backed pools.
	MemDRAM MemTypes = 1 << iota
	// MemCXL allows CXL host-managed device memory pools.
	MemCXL
	// MemPMem allows persistent-memory (DCPMM-class) pools.
	MemPMem

	// MemAny is the zero mask: any media kind.
	MemAny MemTypes = 0
)

// ParseMemTypes parses a comma-separated request like "dram,cxl" or
// "cxl,pmem". An empty string parses to MemAny.
func ParseMemTypes(s string) (MemTypes, error) {
	var m MemTypes
	for _, f := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(f)) {
		case "":
		case "dram":
			m |= MemDRAM
		case "cxl":
			m |= MemCXL
		case "pmem", "dcpmm", "optane":
			m |= MemPMem
		default:
			return 0, fmt.Errorf("fabric: unknown memory type %q (want dram, cxl or pmem)", f)
		}
	}
	return m, nil
}

func (m MemTypes) String() string {
	if m == MemAny {
		return "any"
	}
	var parts []string
	if m&MemDRAM != 0 {
		parts = append(parts, "dram")
	}
	if m&MemCXL != 0 {
		parts = append(parts, "cxl")
	}
	if m&MemPMem != 0 {
		parts = append(parts, "pmem")
	}
	return strings.Join(parts, ",")
}

// kindMemType maps a media kind to its mask bit.
func kindMemType(k memdev.Kind) MemTypes {
	switch k {
	case memdev.KindDRAM:
		return MemDRAM
	case memdev.KindCXLHDM:
		return MemCXL
	case memdev.KindDCPMM:
		return MemPMem
	default:
		return 0
	}
}

// allows reports whether media of kind k satisfies the mask.
func (m MemTypes) allows(k memdev.Kind) bool {
	return m == MemAny || m&kindMemType(k) != 0
}

// SetMemTypes installs a tenant's memory-type request mask. Future
// grants draw only from pools whose media kind the mask allows;
// capacity already granted is unaffected (re-homing it is the
// evacuation machinery's job).
func (m *Manager) SetMemTypes(tenant string, mask MemTypes) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return fmt.Errorf("fabric: no tenant %s", tenant)
	}
	t.memTypes = mask
	return nil
}

// MemTypes reports the tenant's current memory-type request mask.
func (t *Tenant) MemTypes() MemTypes {
	t.mgr.mu.Lock()
	defer t.mgr.mu.Unlock()
	return t.memTypes
}
