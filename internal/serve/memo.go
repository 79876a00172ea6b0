package serve

// The reply memo: each POST /matrix 200 reply, kept under the exact
// bytes of the request body that produced it. Results are deterministic
// in the request identity (DESIGN.md §6), and the identity is a function
// of the body, so a byte-identical body is owed a byte-identical reply:
// the memo replays it without decoding, resolving, running or encoding
// anything. Only the handler's miss path makes replies; the memo holds
// what it made.

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// replyMemoBytes bounds the reply memo: the bytes of its keys (request
// bodies) plus its replies (encoded body and ETag). A 4,096-cell reply
// is about 1 MB, so the bound holds a dozen of the largest replies and
// thousands of typical ones.
const replyMemoBytes = 16 << 20

// memoSeed keys the index's body hashes for the process's lifetime.
var memoSeed = maphash.MakeSeed()

// memoReply is one remembered 200 reply. Its data never changes once
// stored, so a copy taken under the lock stays valid after it.
type memoReply struct {
	data    []byte // the request body, then the reply body, then the ETag
	keyLen  int32
	bodyEnd int32
	cells   int32  // len(MatrixResponse.Cells), for the cells-served counter
	hash    uint64 // the request body's index key
	// prev and next link the slots into the recency list, most recently
	// used first; slot 0 is the list's head and tail.
	prev, next int32
}

func (r *memoReply) key() []byte  { return r.data[:r.keyLen] }
func (r *memoReply) body() []byte { return r.data[r.keyLen:r.bodyEnd] }
func (r *memoReply) etag() string { return string(r.data[r.bodyEnd:]) }

// replyMemo maps request bodies to replies, dropping the least recently
// used reply first once the bytes held exceed limit. A full memo holds
// thousands of replies, so it keeps them where the garbage collector
// has little to trace: one byte slice per reply, in a slot array that an
// integer-keyed index points into. The zero value with a limit set is
// ready to use.
type replyMemo struct {
	mu    sync.Mutex
	limit int              //rarlint:guardedby init  byte bound; replyMemoBytes outside tests
	index map[uint64]int32 //rarlint:guardedby mu  body hash → slot
	slots []memoReply      //rarlint:guardedby mu  slot 0 is the recency list's sentinel
	free  []int32          //rarlint:guardedby mu  slots of evicted replies
	size  int              //rarlint:guardedby mu  Σ len(data) over the stored replies
}

// get returns the reply stored for body and marks it most recently used.
func (m *replyMemo) get(body []byte) (memoReply, bool) {
	h := maphash.Bytes(memoSeed, body)
	m.mu.Lock()
	i, ok := m.index[h]
	ok = ok && bytes.Equal(m.slots[i].key(), body)
	var rep memoReply
	if ok {
		m.unlink(i)
		m.pushFront(i)
		rep = m.slots[i]
	}
	m.mu.Unlock()
	return rep, ok
}

// put stores the reply (body, etag, cells) made for request key, then
// drops least recently used replies until the memo is within its bound.
// A reply larger than the bound is not stored.
func (m *replyMemo) put(key, body []byte, etag string, cells int) {
	size := len(key) + len(body) + len(etag)
	if size > m.limit {
		return
	}
	data := append(append(append(make([]byte, 0, size), key...), body...), etag...)
	rep := memoReply{data: data, keyLen: int32(len(key)), bodyEnd: int32(len(key) + len(body)),
		cells: int32(cells), hash: maphash.Bytes(memoSeed, key)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.index[rep.hash]; ok {
		// The same body, answered by another request meanwhile, or
		// (vanishingly rarely) another body with the same hash.
		m.drop(i)
	}
	if m.slots == nil {
		m.index = make(map[uint64]int32)
		m.slots = make([]memoReply, 1)
	}
	var i int32
	if n := len(m.free); n > 0 {
		i, m.free = m.free[n-1], m.free[:n-1]
	} else {
		i = int32(len(m.slots))
		m.slots = append(m.slots, memoReply{})
	}
	m.slots[i] = rep
	m.index[rep.hash] = i
	m.pushFront(i)
	m.size += size
	for m.size > m.limit {
		m.drop(m.slots[0].prev)
	}
}

// drop removes slot i's reply.
//
//rarlint:locked mu
func (m *replyMemo) drop(i int32) {
	m.unlink(i)
	delete(m.index, m.slots[i].hash)
	m.size -= len(m.slots[i].data)
	m.slots[i] = memoReply{}
	m.free = append(m.free, i)
}

//rarlint:locked mu
func (m *replyMemo) unlink(i int32) {
	s := &m.slots[i]
	m.slots[s.prev].next = s.next
	m.slots[s.next].prev = s.prev
}

//rarlint:locked mu
func (m *replyMemo) pushFront(i int32) {
	s := &m.slots[i]
	s.prev, s.next = 0, m.slots[0].next
	m.slots[s.next].prev = i
	m.slots[0].next = i
}

// gauges returns the number of replies held and their bytes.
func (m *replyMemo) gauges() (entries, held int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index), m.size
}
