package sim

// Canonical fingerprints of cell identities. Every identity hash in this
// package — a cell's ConfigHash, its ETag, the matrix ETag and the cache
// file name — is a 64-bit FNV-1a over one canonical encoding of Go values,
// produced by a reflect walk that allocates nothing:
//
//   - ints, uints and floats (as their IEEE-754 bits) as 8 little-endian
//     bytes, bools as one byte;
//   - strings, slices and arrays as an 8-byte length, then their bytes or
//     elements;
//   - structs as their fields in declaration order.
//
// The length prefixes make the encoding injective over any one type:
// moving a character from one string to the next, or an element from one
// slice to the next, changes the bytes hashed. Any other kind (pointers,
// maps, interfaces, funcs, channels) panics: the hashed types are plain
// value structs, so meeting one is a bug, never bad input.

import (
	"fmt"
	"math"
	"reflect"
)

// fnv64 is a 64-bit FNV-1a hash state.
type fnv64 uint64

const (
	fnvOffset64 fnv64 = 14695981039346656037
	fnvPrime64  fnv64 = 1099511628211
)

func newFNV64() fnv64 { return fnvOffset64 }

// The loops below keep the state in a local, so it stays in a register
// rather than going through *h once per byte.

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * fnvPrime64 }

func (h *fnv64) u64(x uint64) {
	s := *h
	for i := 0; i < 8; i++ {
		s = (s ^ fnv64(byte(x))) * fnvPrime64
		x >>= 8
	}
	*h = s
}

func (h *fnv64) str(s string) {
	h.u64(uint64(len(s)))
	v := *h
	for i := 0; i < len(s); i++ {
		v = (v ^ fnv64(s[i])) * fnvPrime64
	}
	*h = v
}

// ptr feeds the canonical encoding of the value p points to.
func (h *fnv64) ptr(p any) { h.value(reflect.ValueOf(p).Elem()) }

func (h *fnv64) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.byte(1)
		} else {
			h.byte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.u64(math.Float64bits(v.Float()))
	case reflect.String:
		h.str(v.String())
	case reflect.Struct:
		for i, n := 0, v.NumField(); i < n; i++ {
			h.value(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		n := v.Len()
		h.u64(uint64(n))
		for i := 0; i < n; i++ {
			h.value(v.Index(i))
		}
	default:
		panic(fmt.Sprintf("sim: cannot fingerprint a %s (%s)", v.Kind(), v.Type()))
	}
}

// fingerprint returns the canonical hash of the value p points to.
func fingerprint(p any) uint64 {
	h := newFNV64()
	h.ptr(p)
	return uint64(h)
}
