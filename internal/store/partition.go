// Partitioned registries: the store-side half of the sharded serving
// plane. A Partitioner (in practice *shard.Ring) decides which shard
// owns each site; LoadPartition reads only that shard's slice of a saved
// registry, Partition carves an in-memory one, and Merge reassembles the
// disjoint pieces for persistence — the shard servers each hold their
// own partition, but the file on disk stays one registry.
package store

import "fmt"

// Partitioner assigns every site name to a shard. Implementations must
// be pure functions of the site's bytes: the same site always maps to
// the same shard, on every call, in every process. *shard.Ring satisfies
// this.
type Partitioner interface {
	Owner(site string) int
}

// LoadPartition reads the registry at path keeping only the sites the
// partitioner assigns to shardID. Skipped sites are not validated or
// compiled, so loading a 1/N partition costs ~1/N of a full Load — this
// is what lets N shard workers boot from one big registry without each
// paying the whole file's compile bill. The envelope (format version,
// JSON shape) is still fully checked, and kept sites get the same eager
// validation as Load.
func LoadPartition(path string, ring Partitioner, shardID int) (*Store, error) {
	if ring == nil {
		return nil, fmt.Errorf("store: load partition: nil partitioner")
	}
	s, _, err := loadFiltered(path, func(site string) bool { return ring.Owner(site) == shardID }, false)
	return s, err
}

// Partition returns a new registry holding only the sites the
// partitioner assigns to shardID: versions and promotion logs copied,
// epochs reset (consumers of a fresh partition rebuild their runtimes,
// exactly as after Load). The receiver is unchanged.
func (s *Store) Partition(ring Partitioner, shardID int) *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := New()
	for site, vs := range s.sites {
		if ring.Owner(site) != shardID {
			continue
		}
		out.sites[site] = append([]Entry(nil), vs...)
		if log := s.promotion[site]; len(log) > 0 {
			out.promotion[site] = append([]int(nil), log...)
		}
	}
	return out
}

// Split partitions the registry into ring-many disjoint registries,
// indexed by shard ID. Every site lands in exactly one piece;
// Merge(Split(s)...) round-trips.
func (s *Store) Split(ring Partitioner, shards int) []*Store {
	out := make([]*Store, shards)
	for k := range out {
		out[k] = s.Partition(ring, k)
	}
	return out
}

// Merge combines disjoint registries into one — the persistence path for
// a sharded fleet, whose shards each mutate their own partition but save
// a single file. A site appearing in more than one input is an error:
// partitions are disjoint by construction, so overlap means the caller
// merged registries from different rings, and silently picking a winner
// would drop versions. Epochs in the result start at zero.
func Merge(parts ...*Store) (*Store, error) {
	out := New()
	for _, p := range parts {
		if p == nil {
			continue
		}
		p.mu.RLock()
		for site, vs := range p.sites {
			if _, dup := out.sites[site]; dup {
				p.mu.RUnlock()
				return nil, fmt.Errorf("store: merge: site %q present in more than one partition", site)
			}
			out.sites[site] = append([]Entry(nil), vs...)
			if log := p.promotion[site]; len(log) > 0 {
				out.promotion[site] = append([]int(nil), log...)
			}
		}
		p.mu.RUnlock()
	}
	return out, nil
}
