package serve

import (
	"container/list"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// StoreConfig sizes the content-addressed result store.
type StoreConfig struct {
	// MaxEntries caps the number of in-memory reports (LRU-evicted);
	// <= 0 uses 512.
	MaxEntries int
	// MaxBytes caps the summed in-memory report size; <= 0 uses 128 MiB.
	MaxBytes int64
	// Dir, when non-empty, persists every report as <key>.json in this
	// directory (created on demand). Entries evicted from memory — or
	// lost to a restart — are transparently re-read from disk, so
	// identical re-submissions stay cache hits across process lives.
	Dir string
	// Logger, when non-nil, receives one debug record per store
	// decision (component "store": hit, miss, disk-hit, put, evict),
	// emitted outside the store lock.
	Logger *slog.Logger
}

func (c StoreConfig) maxEntries() int {
	if c.MaxEntries > 0 {
		return c.MaxEntries
	}
	return 512
}

func (c StoreConfig) maxBytes() int64 {
	if c.MaxBytes > 0 {
		return c.MaxBytes
	}
	return 128 << 20
}

// Store is the content-addressed analysis-result store: finished
// report documents keyed by the canonical SHA-256 of their inputs (see
// Server.resolve), next to session records (<key>.session) and
// submission aliases (<digest>.submission) under decorated keys. The
// in-memory tier is a byte- and entry-bounded LRU; the optional disk
// tier is one JSON file per key, written atomically. All methods are
// safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	cfg   StoreConfig
	log   *slog.Logger
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	bytes int64

	hits, misses, diskHits *obs.Counter
	entriesG, bytesG       *obs.Gauge
}

type storeEntry struct {
	key  string
	data []byte
}

// NewStore returns an empty store, creating the disk directory when
// configured. Metrics register in reg (may be nil):
// serve_store_{hits,misses,disk_hits}_total and
// serve_store_{entries,bytes}.
func NewStore(cfg StoreConfig, reg *obs.Registry) (*Store, error) {
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: store dir: %w", err)
		}
	}
	reg.SetHelp("serve_store_hits_total", "Analysis results answered from the content-addressed store.")
	reg.SetHelp("serve_store_misses_total", "Analysis submissions not present in the store.")
	return &Store{
		cfg:      cfg,
		log:      olog.Component(cfg.Logger, "store"),
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		hits:     reg.Counter("serve_store_hits_total"),
		misses:   reg.Counter("serve_store_misses_total"),
		diskHits: reg.Counter("serve_store_disk_hits_total"),
		entriesG: reg.Gauge("serve_store_entries"),
		bytesG:   reg.Gauge("serve_store_bytes"),
	}, nil
}

// path returns the disk file of a key. Keys are lowercase hex SHA-256
// digests, optionally with a fixed suffix such as ".session"; a key
// read from a request or from a stored alias passes isContentKey
// first, so they are path-safe by construction.
func (s *Store) path(key string) string {
	return filepath.Join(s.cfg.Dir, key+".json")
}

// Get returns the stored report bytes for key, counting the lookup as
// a hit or a miss. Memory misses fall back to the disk tier
// (re-populating memory). The returned slice is the cached backing
// array — callers must not mutate it.
func (s *Store) Get(key string) ([]byte, bool) {
	data, ok := s.find(key, true)
	if !ok {
		s.misses.Inc()
		s.log.Debug("miss", "key", shortKey(key))
	}
	return data, ok
}

// find looks key up in memory, then on disk (re-populating memory),
// like Get. A counted lookup counts and logs a found entry as a hit;
// neither kind counts a miss.
func (s *Store) find(key string, counted bool) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		data := el.Value.(*storeEntry).data
		s.mu.Unlock()
		if counted {
			s.hits.Inc()
			s.log.Debug("hit", "key", shortKey(key))
		}
		return data, true
	}
	s.mu.Unlock()
	if s.cfg.Dir != "" {
		if data, err := os.ReadFile(s.path(key)); err == nil {
			if counted {
				s.hits.Inc()
				s.diskHits.Inc()
				s.log.Debug("disk-hit", "key", shortKey(key))
			}
			s.insert(key, data, false) // already on disk
			return data, true
		}
	}
	return nil, false
}

// Contains reports whether key is resident (memory or disk) without
// touching hit/miss accounting or LRU order.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	_, ok := s.byKey[key]
	s.mu.Unlock()
	if !ok && s.cfg.Dir != "" {
		_, err := os.Stat(s.path(key))
		ok = err == nil
	}
	return ok
}

// Put stores the report bytes under key in memory and, when
// configured, on disk.
func (s *Store) Put(key string, data []byte) error {
	s.insert(key, data, true)
	s.log.Debug("put", "key", shortKey(key))
	if err := s.writeFile(s.path(key), data); err != nil {
		return fmt.Errorf("serve: store write: %w", err)
	}
	return nil
}

// PutProfile persists a captured pprof blob next to the cached report
// (<key>.<kind>.pprof) when the store has a disk tier; memory-only
// stores keep profiles on the job record alone.
func (s *Store) PutProfile(key, kind string, data []byte) error {
	if err := s.writeFile(filepath.Join(s.cfg.Dir, key+"."+kind+".pprof"), data); err != nil {
		return fmt.Errorf("serve: profile write: %w", err)
	}
	return nil
}

// writeFile writes data to dst in the disk tier atomically (temp file
// + rename, so a crashed write never leaves a truncated file behind);
// without a disk tier it does nothing.
func (s *Store) writeFile(dst string, data []byte) error {
	if s.cfg.Dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(s.cfg.Dir, "put-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// insert adds or refreshes the in-memory entry and evicts LRU tails
// beyond the entry and byte bounds.
func (s *Store) insert(key string, data []byte, overwrite bool) {
	var evicted []string
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		if overwrite {
			e := el.Value.(*storeEntry)
			s.bytes += int64(len(data)) - int64(len(e.data))
			e.data = data
		}
		s.ll.MoveToFront(el)
	} else {
		s.byKey[key] = s.ll.PushFront(&storeEntry{key: key, data: data})
		s.bytes += int64(len(data))
	}
	for s.ll.Len() > s.cfg.maxEntries() || (s.bytes > s.cfg.maxBytes() && s.ll.Len() > 1) {
		back := s.ll.Back()
		e := back.Value.(*storeEntry)
		s.ll.Remove(back)
		delete(s.byKey, e.key)
		s.bytes -= int64(len(e.data))
		evicted = append(evicted, e.key)
	}
	s.entriesG.Set(int64(s.ll.Len()))
	s.bytesG.Set(s.bytes)
	s.mu.Unlock()
	for _, k := range evicted {
		s.log.Debug("evict", "key", shortKey(k))
	}
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
