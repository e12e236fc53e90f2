package kvstore

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the paginated scan path: a cursor-driven, prefix-filtered
// walk over the cache's keys in sorted order. Scans are served from the
// trusted side (like stats): the key table is server metadata, values
// are copied out of the storage domain without entering it, and every
// page is charged to the virtual clock in proportion to the bytes it
// touches — a scan is not a free snapshot. The network front end admits
// each page through the per-tenant gateway quota, so a tenant cannot
// starve others by walking the whole table in one burst.

// MaxScanPage is the per-page item cap: a scan request may ask for at
// most this many items, and larger requests are clamped. Pagination is
// the anti-starvation contract — each page re-enters admission.
const MaxScanPage = 64

// ScanItem is one key-value pair returned by a scan page.
type ScanItem struct {
	// Key is the item's key.
	Key string
	// Value is a copy of the item's value.
	Value []byte
	// Flags is the client's opaque flags word.
	Flags uint32
}

// ScanResult is one scan page: up to the requested limit of items in
// ascending key order, plus a resume cursor when more remain.
type ScanResult struct {
	// Items holds the page's items, ascending by key.
	Items []ScanItem
	// Cursor, when non-empty, is the last key of this page; passing it
	// to the next scan resumes strictly after it. Empty means the scan
	// is complete.
	Cursor string
}

// Scan returns up to limit unexpired items whose keys match prefix
// (empty = all), in ascending key order, starting strictly after
// cursor (empty = from the beginning). Expired items encountered on
// the walk are lazily removed, as with Get. The virtual clock is
// charged per item visited in proportion to key and value bytes.
func (c *Cache) Scan(prefix, cursor string, limit int) (ScanResult, error) {
	if limit <= 0 || limit > MaxScanPage {
		limit = MaxScanPage
	}
	keys := make([]string, 0, len(c.item))
	for k := range c.item {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	clk := c.sys.Clock()
	cost := clk.Model()
	var out ScanResult
	now := clk.Now()
	for _, k := range keys {
		if k <= cursor && cursor != "" {
			continue
		}
		if prefix != "" && !strings.HasPrefix(k, prefix) {
			continue
		}
		el := c.item[k]
		e := el.Value.(*entry)
		// The walk reads the key table and the value bytes: charge both.
		clk.Advance(cost.MemPerByte * uint64(len(k)+e.size))
		if e.expireAt > 0 && now >= e.expireAt {
			if err := c.removeElement(el); err != nil {
				return ScanResult{}, err
			}
			c.expired++
			continue
		}
		if len(out.Items) == limit {
			// One more live key exists past the page: report a cursor.
			out.Cursor = out.Items[len(out.Items)-1].Key
			return out, nil
		}
		var val []byte
		if e.size > 0 {
			v, err := c.sys.CopyFromDomain(e.addr, e.size)
			if err != nil {
				return ScanResult{}, fmt.Errorf("kvstore: scan %q: %w", k, err)
			}
			val = v
		} else {
			val = []byte{}
		}
		out.Items = append(out.Items, ScanItem{Key: k, Value: val, Flags: e.flags})
	}
	return out, nil
}

// Scan serves one scan page on the server: the drain and fail-stop
// gates hold as for any request, the page costs an arrival slot plus
// the network round trip on the virtual clock, and the cache walk
// charges per item visited (see Cache.Scan).
func (s *Server) Scan(prefix, cursor string, limit int) (ScanResult, error) {
	if s.drained {
		s.shell.Drop(1)
		return ScanResult{}, ErrDrained
	}
	if s.persistErr != nil {
		s.shell.Drop(1)
		return ScanResult{}, s.failStopResponse().Err
	}
	s.shell.BeginBatch(1) // arrival slot + network round trip, no restart window
	return s.cache.Scan(prefix, cursor, limit)
}

// Scan serves one scan page across the pool: every shard scans from
// the same cursor, the per-shard pages merge in ascending key order,
// and the merged page truncates to the limit with a resume cursor when
// more remain. Correct because each shard returns its first matching
// keys after the cursor — the globally smallest limit keys are always
// within the union of the per-shard pages.
func (p *Pool) Scan(prefix, cursor string, limit int) (ScanResult, error) {
	if limit <= 0 || limit > MaxScanPage {
		limit = MaxScanPage
	}
	var items []ScanItem
	more := false
	for _, sh := range p.Shards {
		sh.Lock()
		res, err := sh.Srv.Scan(prefix, cursor, limit)
		sh.Unlock()
		if err != nil {
			return ScanResult{}, err
		}
		if res.Cursor != "" {
			more = true
		}
		items = append(items, res.Items...)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
	var out ScanResult
	if len(items) > limit {
		items = items[:limit]
		more = true
	}
	out.Items = items
	if more && len(items) > 0 {
		out.Cursor = items[len(items)-1].Key
	}
	return out, nil
}
