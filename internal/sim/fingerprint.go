package sim

// Canonical fingerprints of cell identities. Every identity hash in this
// package — a cell's ConfigHash, its ETag, the matrix ETag, the cache file
// name and the Stats check of a cache file — hashes one canonical
// encoding of Go values as a sequence of 64-bit words, produced by a
// reflect walk that allocates nothing:
//
//   - ints, uints and floats (as their IEEE-754 bits) as one word each,
//     bools as one word (0 or 1);
//   - strings as a length word, then their bytes packed eight per word
//     (little-endian, the last word zero-padded);
//   - slices and arrays as a length word, then their elements;
//   - structs as their fields in declaration order.
//
// The length prefixes make the encoding injective over any one type:
// moving a character from one string to the next, or an element from one
// slice to the next, changes the words hashed. Any other kind (pointers,
// maps, interfaces, funcs, channels) panics: the hashed types are plain
// value structs, so meeting one is a bug, never bad input.
//
// Each word is one multiply–xorshift step. Every step is a bijection of
// the state for a fixed word and of the word for a fixed state, so two
// encodings of equal length that differ in a single word always hash
// apart. There is no per-process seed: a key hashes to the same value in
// every run, which keeps cache file names stable across restarts. The
// word-at-a-time hash replaced a byte-at-a-time FNV-1a, so ConfigHash,
// ETag and cache file name values from builds before it differ, and their
// cache files are never read. SchemaHash folds in the file-name
// fingerprint of a fixed key, so any such change also moves the cache to
// a new directory instead of leaving unreadable files in the current one.

import (
	"fmt"
	"math"
	"reflect"
)

// wordHash is the state of the word-at-a-time identity hash.
type wordHash uint64

const (
	wordHashInit wordHash = 0x243F6A8885A308D3 // the fractional bits of π
	wordHashMul  wordHash = 0x9E3779B97F4A7C15 // 2^64 / φ, odd
)

func newWordHash() wordHash { return wordHashInit }

// word feeds one 64-bit word of the canonical encoding.
func (h *wordHash) word(w uint64) {
	s := (*h ^ wordHash(w)) * wordHashMul
	*h = s ^ s>>29
}

// str feeds a string: its length word, then its bytes eight per word.
func (h *wordHash) str(s string) {
	h.word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h.word(w)
	}
}

// ptr feeds the canonical encoding of the value p points to.
func (h *wordHash) ptr(p any) { h.value(reflect.ValueOf(p).Elem()) }

func (h *wordHash) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.word(1)
		} else {
			h.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.word(math.Float64bits(v.Float()))
	case reflect.String:
		h.str(v.String())
	case reflect.Struct:
		for i, n := 0, v.NumField(); i < n; i++ {
			h.value(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		n := v.Len()
		h.word(uint64(n))
		for i := 0; i < n; i++ {
			h.value(v.Index(i))
		}
	default:
		panic(fmt.Sprintf("sim: cannot fingerprint a %s (%s)", v.Kind(), v.Type()))
	}
}

// fingerprint returns the canonical hash of the value p points to.
func fingerprint(p any) uint64 {
	h := newWordHash()
	h.ptr(p)
	return uint64(h)
}
