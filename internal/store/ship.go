package store

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// WAL shipping (docs/REPLICATION.md): a leader serves its committed WAL
// prefix to followers as raw CRC32C frames addressed by a (generation,
// byte offset) cursor. Only fsync-acknowledged bytes are ever shipped —
// walBytes advances after a successful Sync, so a crash mid-append can
// never expose a torn tail to a follower; the follower's applied state
// is always a prefix of the leader's acknowledged state.

// ErrShipGone reports a shipping cursor the leader can no longer serve
// incrementally: the generation was compacted away (or never existed),
// so the follower must re-bootstrap from a snapshot.
var ErrShipGone = errors.New("store: shipping cursor predates retained state")

// Cursor addresses a position in a component's WAL stream: the segment
// generation plus the byte offset within it (8-byte header included).
// A fresh segment's first record starts at offset 8.
type Cursor struct {
	Gen    uint64 `json:"gen"`
	Offset int64  `json:"offset"`
}

// Cursor reports the current segment generation and the committed byte
// offset — the position a fully caught-up follower holds.
func (d *Dir) Cursor() Cursor {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cursorLocked()
}

func (d *Dir) cursorLocked() Cursor {
	return Cursor{Gen: d.gen, Offset: int64(len(walMagic) + d.walBytes)}
}

// ShipFrames reads committed frame bytes starting at the cursor: at
// most max bytes (0 = unbounded), never past the committed offset, and
// only from the current segment. It returns the frames, the cursor
// after them, and the committed cursor. A cursor in a superseded (or
// future) generation, or past the committed offset, yields ErrShipGone:
// the follower's incremental position is unservable and it must
// re-bootstrap.
func (d *Dir) ShipFrames(cur Cursor, max int) (frames []byte, next, committed Cursor, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, Cursor{}, Cursor{}, fmt.Errorf("store: %s: ship on closed dir", d.path)
	}
	committed = d.cursorLocked()
	if cur.Gen != d.gen || cur.Offset < int64(len(walMagic)) || cur.Offset > committed.Offset {
		return nil, Cursor{}, committed, ErrShipGone
	}
	if cur.Offset == committed.Offset {
		return nil, cur, committed, nil
	}
	raw, rerr := d.fs.ReadFile(d.path + "/" + segName(d.gen))
	if rerr != nil {
		return nil, Cursor{}, committed, fmt.Errorf("store: %s: ship read: %w", d.path, rerr)
	}
	hi := committed.Offset
	if max > 0 && cur.Offset+int64(max) < hi {
		hi = cur.Offset + int64(max)
	}
	if int64(len(raw)) < hi {
		// The page cache should always hold at least the committed
		// prefix; a shorter file means the substrate lost acked bytes.
		return nil, Cursor{}, committed, fmt.Errorf("store: %s: segment shorter (%d) than committed offset %d", d.path, len(raw), hi)
	}
	frames = append([]byte(nil), raw[cur.Offset:hi]...)
	return frames, Cursor{Gen: d.gen, Offset: hi}, committed, nil
}

// Bootstrap is the full-state transfer a follower applies when its
// cursor is unservable: the newest durable snapshot plus every
// committed frame the snapshot does not cover, ending at Next.
type Bootstrap struct {
	// Snapshot is the newest snapshot payload (nil when none exists —
	// the frames then start from an empty component).
	Snapshot []byte `json:"snapshot,omitempty"`
	// SnapshotAt is the snapshot write time (zero when none).
	SnapshotAt time.Time `json:"snapshot_at,omitzero"`
	// Frames are the committed frame bytes past the snapshot, in append
	// order across retained segments.
	Frames []byte `json:"frames,omitempty"`
	// Next is the cursor a follower holds after applying this bootstrap
	// — the committed position at export time.
	Next Cursor `json:"next"`
}

// ShipBootstrap exports the component's full committed state for a
// follower whose cursor is unservable: the newest snapshot plus the
// committed frames of every retained segment past it. It re-reads the
// files under the Dir's lock, so the export is consistent with
// concurrent appends and compactions.
func (d *Dir) ShipBootstrap() (*Bootstrap, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("store: %s: bootstrap on closed dir", d.path)
	}
	b := &Bootstrap{Next: d.cursorLocked()}
	if d.snapGen > 0 {
		raw, err := d.fs.ReadFile(d.path + "/" + snapName(d.snapGen))
		if err != nil {
			return nil, fmt.Errorf("store: %s: bootstrap snapshot read: %w", d.path, err)
		}
		payload, at, err := decodeSnapshot(raw)
		if err != nil {
			return nil, fmt.Errorf("store: %s: bootstrap snapshot decode: %w", d.path, err)
		}
		b.Snapshot, b.SnapshotAt = payload, at
	}
	// Retained segments at or past the snapshot generation, oldest
	// first. Older segments are sealed (their records were replayed at
	// open); the current one is clamped to the committed offset.
	names, err := d.fs.List(d.path)
	if err != nil {
		return nil, fmt.Errorf("store: %s: bootstrap list: %w", d.path, err)
	}
	var gens []uint64
	for _, n := range names {
		if g, ok := parseGen(n, "wal-"); ok && g >= d.snapGen && g <= d.gen {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for _, g := range gens {
		raw, err := d.fs.ReadFile(d.path + "/" + segName(g))
		if err != nil {
			return nil, fmt.Errorf("store: %s: bootstrap segment read: %w", d.path, err)
		}
		if g == d.gen {
			if int64(len(raw)) < b.Next.Offset {
				return nil, fmt.Errorf("store: %s: segment shorter (%d) than committed offset %d", d.path, len(raw), b.Next.Offset)
			}
			b.Frames = append(b.Frames, raw[len(walMagic):b.Next.Offset]...)
			continue
		}
		// A sealed segment may still carry a torn tail from the crash
		// that preceded the last recovery; ship only its valid prefix.
		_, valid, _, _ := parseWAL(raw)
		if valid > len(walMagic) {
			b.Frames = append(b.Frames, raw[len(walMagic):valid]...)
		}
	}
	return b, nil
}

// AppendFrame appends the CRC32C framing of rec to buf and returns it —
// the exported twin of the WAL's internal record framing, used by
// followers to journal shipped state in their own format.
func AppendFrame(buf []byte, rec Record) []byte { return frameRecord(buf, rec) }

// ParseFrames decodes a run of framed records with no segment header —
// the shape ShipFrames serves. Unlike segment replay, a malformed or
// truncated tail is an error: shipped bytes come from the leader's
// committed prefix, so a torn frame means transport corruption, not a
// crash artifact.
func ParseFrames(data []byte) ([]Record, error) {
	recs, valid, torn, err := parseWAL(append(append([]byte(nil), walMagic...), data...))
	if err != nil {
		return nil, err
	}
	if torn > 0 || valid != len(walMagic)+len(data) {
		return nil, fmt.Errorf("store: %d torn byte(s) in shipped frames", torn)
	}
	return recs, nil
}
