package core

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// TestUopSize pins the uop at 208 bytes: the arena, the ROB ring and
// every stage walk touch whole uops, and the field order in uop.go keeps
// the fields non-branch stage walks read ahead of bpInfo.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 208 {
		t.Errorf("uop is %d bytes, want at most 208", n)
	}
}

// TestUopPoolReuse checks the arena's slot recycling: get hands out each
// slot once, put returns it, the next get reuses the slot most recently
// returned, and a reused uop carries no identity of its previous
// incarnation.
func TestUopPoolReuse(t *testing.T) {
	a := newUopArena(4)
	var got [4]uopRef
	seen := map[uopRef]bool{}
	for i := range got {
		got[i] = a.get()
		if got[i] < 0 || int(got[i]) >= len(a.uops) || seen[got[i]] {
			t.Fatalf("get %d returned slot %d (already handed out: %v)", i, got[i], seen[got[i]])
		}
		seen[got[i]] = true
	}
	if a.nFree != 0 {
		t.Fatalf("nFree = %d after taking every slot, want 0", a.nFree)
	}
	u := a.at(got[2])
	u.seq, u.runahead, u.inLQ, u.retryAt = 42, true, true, 9
	a.put(got[2])
	r := a.get()
	if r != got[2] {
		t.Errorf("get after put returned slot %d, want the returned slot %d", r, got[2])
	}
	if v := a.at(r); v.seq != 0 || v.runahead || v.inLQ || v.retryAt != 0 {
		t.Errorf("recycled uop not reset: seq=%d runahead=%v inLQ=%v retryAt=%d", v.seq, v.runahead, v.inLQ, v.retryAt)
	}
	defer func() {
		if recover() == nil {
			t.Error("get on an exhausted arena must panic")
		}
	}()
	a.get()
}

// coreLists names the Core fields that hold the per-cycle lists: the
// arena and its free list, the structures that name uops, the wakeup
// lists, the completion wheel and its spill, the scratch buffers, and the
// free lists of registers and branch snapshots. A dotted name reaches
// into a field's struct.
var coreLists = []string{
	"arena.uops", "arena.free", "rob", "frontQ.buf", "prdq", "sqList",
	"readyList", "waitBuf", "waitLen", "cwBuf", "cwLen", "cwOverflow",
	"doneScratch", "storeBuf", "bpSnapArena", "bpSnapFree",
	"regs.freeInt", "regs.freeFp",
}

// coreField resolves a dotted coreLists name against v, a Core, following
// pointers.
func coreField(v reflect.Value, path string) (reflect.Value, bool) {
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v = v.FieldByName(name); !v.IsValid() {
			return v, false
		}
	}
	return v, true
}

// pointerIn returns where t holds a pointer ("" if nowhere): any
// reference kind, a string, or a struct field or array element that
// holds one.
func pointerIn(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return t.String()
	case reflect.Array:
		if p := pointerIn(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerIn(t.Field(i).Type); p != "" {
				return t.Field(i).Name + " " + p
			}
		}
	}
	return ""
}

// TestCoreStateHoldsNoPointers checks that the garbage collector has
// nothing to scan in the core's per-cycle state: uop, waiter and cwEntry
// hold no pointer, and neither does the element type of any per-cycle
// list, so storing a uop reference into one needs no write barrier.
func TestCoreStateHoldsNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(uop{}), reflect.TypeOf(waiter{}), reflect.TypeOf(cwEntry{})} {
		if p := pointerIn(typ); p != "" {
			t.Errorf("%s holds a pointer: %s", typ, p)
		}
	}
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	c := New(config.Baseline(), config.RAR, b, 1)
	for _, name := range coreLists {
		f, ok := coreField(reflect.ValueOf(c), name)
		if !ok {
			t.Errorf("Core has no list %s", name)
			continue
		}
		if k := f.Kind(); k != reflect.Slice && k != reflect.Array {
			t.Errorf("Core.%s is a %s, not a list", name, f.Type())
			continue
		}
		if p := pointerIn(f.Type().Elem()); p != "" {
			t.Errorf("Core.%s holds %s elements, which hold a pointer: %s", name, f.Type().Elem(), p)
		}
	}
}

// TestCoreListsKeepTheirHeaders checks that a warmed core's per-cycle
// lists keep their slice headers: their lengths live in int fields, so a
// measured window stores into the lists' elements only and never writes
// a slice header, whose data pointer would need a write barrier whenever
// the collector is marking.
func TestCoreListsKeepTheirHeaders(t *testing.T) {
	type header struct {
		data     uintptr
		len, cap int
	}
	for _, tc := range []struct {
		scheme config.Scheme
		bench  string
	}{{config.OoO, "exchange2"}, {config.FLUSH, "mcf"}, {config.RAR, "libquantum"}, {config.PRE, "soplex"}} {
		b, err := trace.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		c := New(config.Baseline(), tc.scheme, b, 42)
		if _, err := c.Run(100_000); err != nil {
			t.Fatal(err)
		}
		headers := func() map[string]header {
			m := map[string]header{}
			for _, name := range coreLists {
				f, ok := coreField(reflect.ValueOf(c), name)
				if ok && f.Kind() == reflect.Slice {
					m[name] = header{f.Pointer(), f.Len(), f.Cap()}
				}
			}
			return m
		}
		before := headers()
		if _, err := c.Run(20_000); err != nil {
			t.Fatal(err)
		}
		for name, h := range headers() {
			if h != before[name] {
				t.Errorf("%s/%s: Core.%s header changed from %+v to %+v over a warmed window",
					tc.scheme.Name, tc.bench, name, before[name], h)
			}
		}
	}
}
