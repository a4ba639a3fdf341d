// Package pmemfs provides the DAX-style namespaces the paper's harness
// addresses pools through: /mnt/pmem0 and /mnt/pmem1 back onto the two
// socket DRAMs (the "emulated remote socket" PMem of §3.1), /mnt/pmem2
// backs onto the CXL-attached memory (Figures 2 and 9).
//
// A Mount exposes a byte-addressable region of a device through an
// Accessor — for CXL mounts the accessor routes every access through the
// root port and the CXL.mem protocol, exactly as a DAX mapping of an HDM
// window would; bulk file I/O rides the port's burst transactions, so a
// pool-sized read is a stream of multi-line bursts rather than one codec
// round trip per cache line. Files are simple extents; like a real DAX
// filesystem the data path is load/store, and the (tiny) metadata path
// is assumed durable out of band.
package pmemfs

import (
	"fmt"
	"sort"
	"sync"
)

// Accessor is the raw byte path to a mount's media.
type Accessor interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

// Mount is one pmem namespace (e.g. "/mnt/pmem2").
type Mount struct {
	name       string
	acc        Accessor
	size       int64
	persistent bool

	mu     sync.Mutex
	files  map[string]*File
	cursor int64
}

// NewMount builds a namespace of the given size over acc. persistent
// records whether the media survives power loss (false for the
// DRAM-emulated pmem0/pmem1, true for the battery-backed CXL mount).
func NewMount(name string, acc Accessor, size int64, persistent bool) (*Mount, error) {
	if acc == nil {
		return nil, fmt.Errorf("pmemfs: %s: nil accessor", name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("pmemfs: %s: non-positive size %d", name, size)
	}
	return &Mount{
		name:       name,
		acc:        acc,
		size:       size,
		persistent: persistent,
		files:      make(map[string]*File),
	}, nil
}

// Name returns the mount point.
func (m *Mount) Name() string { return m.name }

// Persistent reports media durability.
func (m *Mount) Persistent() bool { return m.persistent }

// Size returns the namespace capacity.
func (m *Mount) Size() int64 { return m.size }

// Free returns the unallocated bytes.
func (m *Mount) Free() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size - m.cursor
}

// Create allocates a new fixed-size file.
func (m *Mount) Create(name string, size int64) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("pmemfs: %s/%s: non-positive size", m.name, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		return nil, fmt.Errorf("pmemfs: %s/%s: exists", m.name, name)
	}
	// 4 KiB extent alignment.
	base := (m.cursor + 4095) &^ 4095
	if base+size > m.size {
		return nil, fmt.Errorf("pmemfs: %s/%s: no space (%d needed, %d free)", m.name, name, size, m.size-base)
	}
	f := &File{mount: m, name: name, base: base, size: size}
	m.files[name] = f
	m.cursor = base + size
	return f, nil
}

// Open returns an existing file.
func (m *Mount) Open(name string) (*File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("pmemfs: %s/%s: no such file", m.name, name)
	}
	return f, nil
}

// Remove deletes a file. Its extent is not reclaimed (append-only extent
// allocation, like a freshly provisioned namespace).
func (m *Mount) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("pmemfs: %s/%s: no such file", m.name, name)
	}
	delete(m.files, name)
	return nil
}

// List returns the file names in order.
func (m *Mount) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for n := range m.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// File is one extent-backed file.
type File struct {
	mount *Mount
	name  string
	base  int64
	size  int64
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file size.
func (f *File) Size() int64 { return f.size }

// Persistent reports whether the backing media is durable.
func (f *File) Persistent() bool { return f.mount.persistent }

// Path returns the full path (mount + name).
func (f *File) Path() string { return f.mount.name + "/" + f.name }

// check rejects an access of n bytes at off that leaves the file. The
// offset and length are each compared with the room left, so no sum
// wraps.
func (f *File) check(off int64, n int) error {
	if off < 0 || off > f.size || int64(n) > f.size-off {
		return fmt.Errorf("pmemfs: %s: access of %d bytes at %d outside file size %d", f.Path(), n, off, f.size)
	}
	return nil
}

// ReadAt reads from the file through the mount's accessor.
func (f *File) ReadAt(p []byte, off int64) error {
	if err := f.check(off, len(p)); err != nil {
		return err
	}
	return f.mount.acc.ReadAt(p, f.base+off)
}

// WriteAt writes to the file through the mount's accessor.
func (f *File) WriteAt(p []byte, off int64) error {
	if err := f.check(off, len(p)); err != nil {
		return err
	}
	return f.mount.acc.WriteAt(p, f.base+off)
}

// Registry maps mount points to mounts, the machine-level /mnt table.
type Registry struct {
	mu     sync.Mutex
	mounts map[string]*Mount
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{mounts: make(map[string]*Mount)}
}

// Add registers a mount.
func (r *Registry) Add(m *Mount) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.mounts[m.Name()]; ok {
		return fmt.Errorf("pmemfs: %s already mounted", m.Name())
	}
	r.mounts[m.Name()] = m
	return nil
}

// Mount resolves a mount point.
func (r *Registry) Mount(name string) (*Mount, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.mounts[name]
	if !ok {
		return nil, fmt.Errorf("pmemfs: %s not mounted", name)
	}
	return m, nil
}

// Mounts lists mount points in order.
func (r *Registry) Mounts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.mounts))
	for n := range r.mounts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
