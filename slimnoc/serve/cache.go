package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"sync/atomic"

	"repro/slimnoc"
	"repro/slimnoc/store"
)

// cacheSchema versions the cached record shape (the []EstimateResult
// JSON) and the key identity below. Bump it when either changes
// incompatibly; the engine component of the salt moves with
// sim.EngineVersion automatically, so results computed by one engine
// generation are never served to another — the same salting discipline as
// slimnoc.PointKey.
const cacheSchema = "slimnoc.serve.EstimateBatch/v1"

// cacheSalt partitions the store key space for serve responses.
const cacheSalt = cacheSchema + "|engine=" + slimnoc.EngineVersion

// Cache is the store-backed response cache: estimate episodes keyed by
// content address, so a repeated query — same engine, same batch — is
// served without simulating, across sessions and across server restarts
// (the store file persists). A nil *Cache is valid and caches nothing.
//
// Concurrency: the underlying store.Store serializes access internally and
// the serve workload is read-mostly (every repeat is a Get), the access
// pattern the store's concurrency contract is tested under.
type Cache struct {
	st   *store.Store
	hits atomic.Int64
}

// NewCache wraps an open store as a response cache. The store may be
// shared with other users (keys are salted); the caller keeps ownership
// and closes it.
func NewCache(st *store.Store) *Cache { return &Cache{st: st} }

// Key computes the content address of an episode under the estimator's
// canonical spec. spec must already be canonical (Estimator.Spec returns
// the right form); transfers must carry resolved flit counts. A session,
// whose spec never changes, keeps the keyer instead of calling this per
// request.
func (c *Cache) Key(spec slimnoc.RunSpec, transfers []slimnoc.Transfer) (store.Key, error) {
	k, err := newEpisodeKeyer(spec)
	if err != nil {
		return "", err
	}
	return k.key(transfers), nil
}

// episodeKeyer computes episode content addresses for one engine spec. An
// episode's identity is the engine's canonical spec plus the exact transfer
// batch — order-sensitive by design: transfers in one episode contend, so a
// reordered batch is a different (if usually equal-valued) computation. Its
// key is store.KeyOf(cacheSalt, {"spec": spec, "transfers": batch}), whose
// hash input is
//
//	salt '\n' {"spec":<canonical spec>,"transfers":<canonical transfers>}
//
// Everything up to the transfers is the same for every request of a session,
// so it is rendered once; key appends the transfers — whose canonical form
// (keys sorted: dst, flits, src) needs no JSON round trip — and hashes. Byte
// identity with store.KeyOf is pinned by TestEpisodeKeyerMatchesKeyOf, so
// cache files written before the keyer existed keep hitting. Not safe for
// concurrent use: it reuses its buffer.
type episodeKeyer struct {
	buf    []byte
	prefix int // len of the constant part of buf
}

func newEpisodeKeyer(spec slimnoc.RunSpec) (*episodeKeyer, error) {
	canon, err := store.Canonical(spec)
	if err != nil {
		return nil, err
	}
	buf := append([]byte(cacheSalt+"\n"+`{"spec":`), canon...)
	buf = append(buf, `,"transfers":`...)
	return &episodeKeyer{buf: buf, prefix: len(buf)}, nil
}

func (k *episodeKeyer) key(transfers []slimnoc.Transfer) store.Key {
	b := k.buf[:k.prefix]
	if transfers == nil {
		b = append(b, "null"...) // what encoding/json writes for a nil slice
	} else {
		b = append(b, '[')
		for i, t := range transfers {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"dst":`...)
			b = strconv.AppendInt(b, int64(t.Dst), 10)
			b = append(b, `,"flits":`...)
			b = strconv.AppendInt(b, int64(t.Flits), 10)
			b = append(b, `,"src":`...)
			b = strconv.AppendInt(b, int64(t.Src), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	k.buf = b
	sum := sha256.Sum256(b)
	return store.Key(hex.EncodeToString(sum[:]))
}

// Get returns the cached episode results for key, if present and
// decodable. Undecodable records (schema drift) are treated as misses and
// later superseded by Put.
func (c *Cache) Get(key store.Key) ([]slimnoc.EstimateResult, bool) {
	if c == nil || c.st == nil {
		return nil, false
	}
	raw, ok := c.st.Get(key)
	if !ok {
		return nil, false
	}
	var results []slimnoc.EstimateResult
	if err := json.Unmarshal(raw, &results); err != nil {
		return nil, false
	}
	c.hits.Add(1)
	return results, true
}

// Put durably stores an episode's results under key.
func (c *Cache) Put(key store.Key, results []slimnoc.EstimateResult) error {
	if c == nil || c.st == nil {
		return nil
	}
	raw, err := json.Marshal(results)
	if err != nil {
		return err
	}
	return c.st.Put(key, raw)
}

// size returns the number of records in the backing store (0 when nil).
func (c *Cache) size() int {
	if c == nil || c.st == nil {
		return 0
	}
	return c.st.Len()
}

// hitCount returns how many Get calls were served from the cache.
func (c *Cache) hitCount() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}
