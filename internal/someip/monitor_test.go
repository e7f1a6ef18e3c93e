package someip

import "testing"

func TestPeekHeaderRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", make([]byte, 13)},
		{"length below header", []byte{0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0}},
		{"length beyond buffer", []byte{0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0}},
	}
	for _, c := range cases {
		if _, ok := PeekHeader(c.b); ok {
			t.Errorf("%s: PeekHeader accepted %x", c.name, c.b)
		}
	}
}

func TestPeekHeaderFields(t *testing.T) {
	m := Message{ServiceID: 0x1234, MethodID: 0x8001, ClientID: 0x42, SessionID: 7,
		Type: TypeNotification, ReturnCode: ReturnOK, Payload: []byte{1, 2, 3}}
	h, ok := PeekHeader(m.encode())
	if !ok {
		t.Fatal("PeekHeader rejected a valid encoding")
	}
	if h.Service != 0x1234 || h.Method != 0x8001 || h.Client != 0x42 ||
		h.Session != 7 || h.Type != TypeNotification || h.PayloadLen != 3 {
		t.Fatalf("header=%+v", h)
	}
}
