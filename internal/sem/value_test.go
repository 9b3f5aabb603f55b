package sem

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestValueLayout guards the value layout: a Value is one 16-byte word
// holding no Go pointer, so []Value copies are small and the garbage
// collector never scans them.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("sizeof(Value) = %d, want 16", n)
	}
	typ := reflect.TypeOf(Value{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Value.%s has kind %s, which may hold a pointer", f.Name, f.Type.Kind())
		}
	}
}

// TestPtrRoundTrip: every cell kind survives PtrV and Ptr unchanged.
func TestPtrRoundTrip(t *testing.T) {
	for _, c := range []Cell{
		{Kind: CGlobal, Idx: 3},
		{Kind: CHeapField, Idx: 1 << 40, Field: 7},
		{Kind: CLocal, FrameID: 12, Field: 2},
		{Kind: CObject, Idx: 5},
	} {
		if got := PtrV(c).Ptr(); got != c {
			t.Errorf("PtrV(%v).Ptr() = %v", c, got)
		}
	}
}
