// Package kvstore implements the Memcached-like key-value store used as
// the paper's primary use case.
//
// The compartmentalization pattern follows the SDRaD Memcached retrofit:
// the cache contents (the long-lived 10 GB state whose loss makes a
// restart cost two minutes) live in a dedicated storage domain whose
// protection key no worker ever enables, while request parsing and
// handling run inside worker domains, each client on one of them. A
// memory-safety bug triggered by a malicious request corrupts only the
// worker domain, which is rewound and discarded in microseconds — the
// cache, and every other client's traffic, survive untouched. The same server can run in
// "native" mode (no domains, crash-on-fault + process restart) as the
// baseline.
package kvstore

import (
	"container/list"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
)

// Sentinel errors.
var (
	// ErrTooLarge is returned for values above the per-item limit.
	ErrTooLarge = errors.New("kvstore: value too large")
	// ErrCapacity is returned when an item cannot fit even after evicting
	// everything else.
	ErrCapacity = errors.New("kvstore: item exceeds cache capacity")
)

// MaxValueSize is the per-item value limit (memcached's classic 1 MiB).
const MaxValueSize = 1 << 20

// Cache is the root-protected cache: values live in the heap of a
// storage domain that is never entered, so its protection key is never
// enabled while untrusted request-handling code runs. Items are LRU
// evicted. Not safe for concurrent use.
type Cache struct {
	sys  *core.System
	dom  *core.Domain
	item map[string]*list.Element
	lru  *list.List // front = most recently used
	used uint64
	cap  uint64

	hits      uint64
	misses    uint64
	evictions uint64
	expired   uint64
}

type entry struct {
	key  string
	addr mem.Addr
	size int
	// flags is the client's opaque flags word (memcached semantics).
	flags uint32
	// expireAt is the virtual time after which the item is dead
	// (0 = never expires).
	expireAt time.Duration
}

// NewCache creates a cache backed by a fresh storage domain at udi with
// the given capacity in bytes.
func NewCache(sys *core.System, udi core.UDI, capacityBytes uint64) (*Cache, error) {
	if capacityBytes == 0 {
		capacityBytes = 64 << 20
	}
	// Size the storage domain's heap to the capacity (pages, rounded up,
	// plus allocator slack).
	maxPages := int(capacityBytes/mem.PageSize)*2 + 64
	dom, err := sys.InitDomain(udi, core.DomainConfig{
		HeapPages:    64,
		MaxHeapPages: maxPages,
		StackPages:   1,
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: storage domain: %w", err)
	}
	return &Cache{
		sys:  sys,
		dom:  dom,
		item: make(map[string]*list.Element),
		lru:  list.New(),
		cap:  capacityBytes,
	}, nil
}

// Get returns a copy of the value for key and the flags word stored
// with it, with a hit flag (a miss has flags 0). Expired items are
// lazily removed and count as misses (memcached semantics).
func (c *Cache) Get(key string) (val []byte, flags uint32, hit bool, err error) {
	el, ok := c.item[key]
	if !ok {
		c.misses++
		return nil, 0, false, nil
	}
	e := el.Value.(*entry)
	if e.expireAt > 0 && c.sys.Clock().Now() >= e.expireAt {
		if err := c.removeElement(el); err != nil {
			return nil, 0, false, err
		}
		c.expired++
		c.misses++
		return nil, 0, false, nil
	}
	val, err = c.sys.CopyFromDomain(e.addr, e.size)
	if err != nil {
		return nil, 0, false, fmt.Errorf("kvstore: get %q: %w", key, err)
	}
	c.lru.MoveToFront(el)
	c.hits++
	return val, e.flags, true, nil
}

// Set stores a copy of val under key, evicting LRU items as needed.
func (c *Cache) Set(key string, val []byte) error {
	return c.SetItem(key, val, 0, 0)
}

// SetItem stores a copy of val with a lifetime and an opaque flags word.
func (c *Cache) SetItem(key string, val []byte, ttl time.Duration, flags uint32) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(val))
	}
	if uint64(len(val)) > c.cap {
		return fmt.Errorf("%w: %d > %d", ErrCapacity, len(val), c.cap)
	}
	el, resident := c.item[key]
	if resident {
		// Overwrite: free the old value first, as a delete would, but keep
		// the entry and its list element. At the front of the list, with
		// its size no longer counted in used, the element is out of
		// eviction's reach: evicting down to it leaves used at 0, and
		// len(val) <= cap.
		e := el.Value.(*entry)
		if err := c.dom.Heap().Free(e.addr); err != nil {
			return fmt.Errorf("kvstore: free %q: %w", e.key, err)
		}
		c.used -= uint64(e.size)
		c.lru.MoveToFront(el)
	}
	addr, err := c.place(key, val)
	if err != nil {
		if resident {
			// The old value is already freed: the key goes, as it would
			// after a delete.
			c.lru.Remove(el)
			delete(c.item, key)
		}
		return err
	}
	var expireAt time.Duration
	if ttl > 0 {
		expireAt = c.sys.Clock().Now() + ttl
	}
	if resident {
		e := el.Value.(*entry)
		e.addr, e.size, e.flags, e.expireAt = addr, len(val), flags, expireAt
	} else {
		c.item[key] = c.lru.PushFront(&entry{key: key, addr: addr, size: len(val), flags: flags, expireAt: expireAt})
	}
	c.used += uint64(len(val))
	return nil
}

// place evicts LRU items until val fits, then copies val into a fresh
// block of the storage heap.
func (c *Cache) place(key string, val []byte) (mem.Addr, error) {
	for c.used+uint64(len(val)) > c.cap {
		if err := c.evictOne(); err != nil {
			return 0, err
		}
	}
	store := val
	if len(val) == 0 {
		// The allocator needs at least one byte; the entry keeps the true
		// size.
		store = []byte{0}
	}
	addr, err := c.dom.Heap().Alloc(len(store))
	if err != nil {
		return 0, fmt.Errorf("kvstore: set %q: %w", key, err)
	}
	if err := c.sys.CopyToDomain(addr, store); err != nil {
		return 0, fmt.Errorf("kvstore: set %q: %w", key, err)
	}
	return addr, nil
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key string) (bool, error) {
	el, ok := c.item[key]
	if !ok {
		return false, nil
	}
	if err := c.removeElement(el); err != nil {
		return false, err
	}
	return true, nil
}

func (c *Cache) evictOne() error {
	back := c.lru.Back()
	if back == nil {
		return ErrCapacity
	}
	c.evictions++
	return c.removeElement(back)
}

func (c *Cache) removeElement(el *list.Element) error {
	e := el.Value.(*entry)
	if err := c.dom.Heap().Free(e.addr); err != nil {
		return fmt.Errorf("kvstore: free %q: %w", e.key, err)
	}
	c.lru.Remove(el)
	delete(c.item, e.key)
	c.used -= uint64(e.size)
	return nil
}

// Items returns the number of cached items.
func (c *Cache) Items() int { return len(c.item) }

// Bytes returns the cached value bytes (the application state size that
// a restart must repopulate).
func (c *Cache) Bytes() uint64 { return c.used }

// Capacity returns the configured capacity.
func (c *Cache) Capacity() uint64 { return c.cap }

// CacheStats reports hit/miss/eviction/expiry counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Expired   uint64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Expired: c.expired}
}
