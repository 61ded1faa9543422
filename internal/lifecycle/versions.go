package lifecycle

import (
	"encoding/json"
	"fmt"
	"time"
)

// Version origins recorded in metadata.
const (
	// OriginInitial is the version created with the estimator itself.
	OriginInitial = "initial"
	// OriginTrained marks a background-trained model that was promoted.
	OriginTrained = "trained"
	// OriginRejected marks a trained challenger the promotion gate turned
	// down; it is archived (never served) so an operator can inspect or
	// manually promote it via rollback.
	OriginRejected = "rejected"
	// OriginRestored marks the serving version reloaded from a snapshot
	// file at boot.
	OriginRestored = "restored"
)

// Version is one immutable numbered model. The Payload is the opaque
// serialized model snapshot (a quicksel.Snapshot envelope in the serving
// registry), present only while the version is archived; metadata
// describes how the version came to be. Listings strip the payload with
// Meta.
type Version struct {
	// ID is the immutable version number, unique per estimator and
	// monotonically increasing.
	ID int `json:"id"`
	// Origin is one of the Origin* constants.
	Origin string `json:"origin"`
	// CreatedAt is the wall-clock creation time.
	CreatedAt time.Time `json:"created_at"`
	// Observations is the estimator's accepted-observation count when the
	// version was trained.
	Observations uint64 `json:"observations"`
	// Accuracy is the realized window accuracy at creation time.
	Accuracy Metrics `json:"accuracy"`
	// Gate is the shadow-scoring outcome that admitted (or archived) the
	// version; nil for PolicyAlways promotions and the initial version.
	Gate *ShadowResult `json:"gate,omitempty"`
	// Payload is the serialized model of an archived version; omitted
	// from listings and from the serving version.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Meta returns the version with its payload stripped, for listings.
func (v Version) Meta() Version {
	v.Payload = nil
	return v
}

// Store is the bounded archive of one estimator's versions: previous
// champions and rejected challengers, newest first, each holding its
// serialized model. The serving version is not in the store — its owner
// holds the model itself beside the version metadata — so a payload exists
// only for a model that has left the serving slot. The store also numbers
// new versions. Not safe for concurrent use.
type Store struct {
	next    int
	history []Version
	bound   int
}

// NewStore builds a version store; bound ≤ 0 takes DefaultHistory.
func NewStore(bound int) *Store {
	if bound <= 0 {
		bound = DefaultHistory
	}
	return &Store{next: 1, bound: bound}
}

// Mint numbers the next version and returns its metadata (no payload): the
// caller either serves it or archives it with its payload attached.
func (s *Store) Mint(origin string, observations uint64, acc Metrics, gate *ShadowResult) Version {
	v := Version{
		ID:           s.next,
		Origin:       origin,
		CreatedAt:    time.Now().UTC(),
		Observations: observations,
		Accuracy:     acc,
		Gate:         gate,
	}
	s.next++
	return v
}

// Archive prepends a version, payload included, to the bounded history
// (newest first); the oldest versions fall off past the bound.
func (s *Store) Archive(v Version) {
	s.history = append([]Version{v}, s.history...)
	if len(s.history) > s.bound {
		s.history = s.history[:s.bound]
	}
}

// History returns the archived versions' metadata, newest first.
func (s *Store) History() []Version {
	out := make([]Version, len(s.history))
	for i, v := range s.history {
		out[i] = v.Meta()
	}
	return out
}

// find locates an archived version by id (0 = most recently archived) and
// returns its history index.
func (s *Store) find(id int) (int, error) {
	if id == 0 {
		if len(s.history) == 0 {
			return -1, fmt.Errorf("lifecycle: no archived version to roll back to")
		}
		return 0, nil
	}
	for i, v := range s.history {
		if v.ID == id {
			return i, nil
		}
	}
	return -1, fmt.Errorf("lifecycle: version %d not found (history keeps the last %d versions)", id, s.bound)
}

// Peek returns the archived version Rollback(id, ...) would restore —
// payload included — without moving anything. Callers rebuild the model
// from the payload before publishing the rollback, so the store never
// gives up a version whose model failed to restore.
func (s *Store) Peek(id int) (Version, error) {
	idx, err := s.find(id)
	if err != nil {
		return Version{}, err
	}
	return s.history[idx], nil
}

// Rollback takes archived version id (0 = the most recently archived; after
// a promotion that is the previous champion) out of the history and
// archives outgoing — the version leaving the serving slot, with its
// payload — in its place. It returns the chosen version, payload included.
func (s *Store) Rollback(id int, outgoing Version) (Version, error) {
	idx, err := s.find(id)
	if err != nil {
		return Version{}, err
	}
	chosen := s.history[idx]
	s.history = append(s.history[:idx], s.history[idx+1:]...)
	s.Archive(outgoing)
	return chosen, nil
}

// StoreState is the serializable form of a Store plus the serving version's
// metadata. Current never carries a payload: the owner persists the serving
// model itself.
type StoreState struct {
	Next    int       `json:"next"`
	Current Version   `json:"current"`
	History []Version `json:"history,omitempty"`
}

// State exports the store for persistence, with current — the serving
// version — recorded beside the archive.
func (s *Store) State(current Version) *StoreState {
	return &StoreState{
		Next:    s.next,
		Current: current.Meta(),
		History: append([]Version(nil), s.history...),
	}
}

// RestoreStore rebuilds a store from persisted state and returns it with
// the serving version's metadata (the zero Version when st is nil).
func RestoreStore(bound int, st *StoreState) (*Store, Version) {
	s := NewStore(bound)
	if st == nil {
		return s, Version{}
	}
	s.history = append([]Version(nil), st.History...)
	if len(s.history) > s.bound {
		s.history = s.history[:s.bound]
	}
	s.next = max(st.Next, st.Current.ID+1)
	for _, v := range s.history {
		s.next = max(s.next, v.ID+1)
	}
	return s, st.Current.Meta()
}
