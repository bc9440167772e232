package types

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"starlink/internal/message"
)

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"Integer", "String", "Bytes", "Boolean", "FQDN", "URL", "IPv4"} {
		if _, err := r.Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := r.Lookup("Nope"); err == nil {
		t.Error("unknown type should fail")
	}
	if len(r.Names()) != 7 {
		t.Errorf("Names() = %v", r.Names())
	}
}

func TestRegistryDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(IntegerMarshaller{}); err == nil {
		t.Fatal("duplicate register should fail")
	}
}

func TestIntegerMarshalWidths(t *testing.T) {
	m := IntegerMarshaller{}
	tests := []struct {
		v    int64
		bits int
		want []byte
	}{
		{2, 8, []byte{2}},
		{1, 16, []byte{0, 1}},
		{0xABCDEF, 24, []byte{0xAB, 0xCD, 0xEF}},
		{5, 3, []byte{5}},
		{65535, 16, []byte{0xFF, 0xFF}},
	}
	for _, tt := range tests {
		got, err := m.AppendMarshal(nil, message.Int(tt.v), tt.bits)
		if err != nil {
			t.Fatalf("AppendMarshal(%d,%d): %v", tt.v, tt.bits, err)
		}
		if !bytes.Equal(got, tt.want) {
			t.Errorf("AppendMarshal(%d,%d) = %v, want %v", tt.v, tt.bits, got, tt.want)
		}
		back, err := m.Unmarshal(string(got), tt.bits)
		if err != nil {
			t.Fatal(err)
		}
		if i, _ := back.AsInt(); i != tt.v {
			t.Errorf("roundtrip %d -> %d", tt.v, i)
		}
	}
}

func TestIntegerMarshalErrors(t *testing.T) {
	m := IntegerMarshaller{}
	if _, err := m.AppendMarshal(nil, message.Str("x"), 8); err == nil {
		t.Error("string value should fail")
	}
	if _, err := m.AppendMarshal(nil, message.Int(256), 8); err == nil {
		t.Error("overflow should fail")
	}
	if _, err := m.AppendMarshal(nil, message.Int(-1), 8); err == nil {
		t.Error("negative should fail")
	}
	if _, err := m.AppendMarshal(nil, message.Int(1), 0); err == nil {
		t.Error("zero width should fail")
	}
}

func TestStringMarshal(t *testing.T) {
	m := StringMarshaller{}
	got, err := m.AppendMarshal(nil, message.Str("abc"), 0)
	if err != nil || string(got) != "abc" {
		t.Fatalf("got %q err %v", got, err)
	}
	// Fixed width must match exactly.
	if _, err := m.AppendMarshal(nil, message.Str("abc"), 16); err == nil {
		t.Error("width mismatch should fail")
	}
	// Integers are allowed and render as decimal text.
	got, err = m.AppendMarshal(nil, message.Int(42), 0)
	if err != nil || string(got) != "42" {
		t.Fatalf("int-as-string: %q err %v", got, err)
	}
	v, err := m.Unmarshal("hi", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "hi" {
		t.Fatalf("unmarshal = %q", s)
	}
}

func TestBytesMarshal(t *testing.T) {
	m := BytesMarshaller{}
	got, err := m.AppendMarshal(nil, message.Bytes("\x01\x02"), 16)
	if err != nil || !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("got %v err %v", got, err)
	}
	if _, err := m.AppendMarshal(nil, message.Bytes("\x01"), 16); err == nil {
		t.Error("length mismatch should fail")
	}
	// Strings are accepted.
	got, err = m.AppendMarshal(nil, message.Str("ab"), 0)
	if err != nil || string(got) != "ab" {
		t.Fatalf("string-as-bytes: %v %v", got, err)
	}
}

func TestBooleanMarshal(t *testing.T) {
	m := BooleanMarshaller{}
	got, err := m.AppendMarshal(nil, message.Bool(true), 8)
	if err != nil || !bytes.Equal(got, []byte{1}) {
		t.Fatalf("got %v err %v", got, err)
	}
	v, err := m.Unmarshal("\x00", 8)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := v.AsBool(); b {
		t.Fatal("0 should be false")
	}
	v, _ = m.Unmarshal("\x00\x04", 16)
	if b, _ := v.AsBool(); !b {
		t.Fatal("nonzero should be true")
	}
}

func TestFQDNRoundtrip(t *testing.T) {
	m := FQDNMarshaller{}
	tests := []string{"printer._slp._udp.local", "a.b", "local", ""}
	for _, name := range tests {
		enc, err := m.AppendMarshal(nil, message.Str(name), 0)
		if err != nil {
			t.Fatalf("AppendMarshal(%q): %v", name, err)
		}
		v, err := m.Unmarshal(string(enc), 0)
		if err != nil {
			t.Fatalf("Unmarshal(%q): %v", name, err)
		}
		if s, _ := v.AsString(); s != name {
			t.Errorf("roundtrip %q -> %q", name, s)
		}
	}
}

func TestFQDNWireFormat(t *testing.T) {
	m := FQDNMarshaller{}
	enc, err := m.AppendMarshal(nil, message.Str("ab.c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{2, 'a', 'b', 1, 'c', 0}
	if !bytes.Equal(enc, want) {
		t.Fatalf("enc = %v, want %v", enc, want)
	}
}

func TestFQDNErrors(t *testing.T) {
	m := FQDNMarshaller{}
	if _, err := m.AppendMarshal(nil, message.Str("a..b"), 0); err == nil {
		t.Error("empty label should fail")
	}
	long := make([]byte, 70)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := m.AppendMarshal(nil, message.Str(string(long)), 0); err == nil {
		t.Error("64+ byte label should fail")
	}
	if _, _, err := DecodeFQDN("\x05a"); err == nil {
		t.Error("truncated label should fail")
	}
	if _, _, err := DecodeFQDN(""); err == nil {
		t.Error("empty data should fail")
	}
	if _, _, err := DecodeFQDN("\xC0\x01"); err == nil {
		t.Error("compression pointer should be rejected")
	}
}

func TestDecodeFQDNConsumed(t *testing.T) {
	data := "\x01a\x00\xFF\xFF"
	name, n, err := DecodeFQDN(data)
	if err != nil {
		t.Fatal(err)
	}
	if name != "a" || n != 3 {
		t.Fatalf("got %q consumed %d", name, n)
	}
}

func TestURLExplodeImplode(t *testing.T) {
	m := URLMarshaller{}
	children, err := explode(message.Str("http://10.0.0.2:5431/desc.xml"))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]message.Value{}
	for _, c := range children {
		byLabel[c.Label] = c.Value
	}
	if s, _ := byLabel["protocol"].AsString(); s != "http" {
		t.Errorf("protocol = %q", s)
	}
	if s, _ := byLabel["address"].AsString(); s != "10.0.0.2" {
		t.Errorf("address = %q", s)
	}
	if p, _ := byLabel["port"].AsInt(); p != 5431 {
		t.Errorf("port = %d", p)
	}
	if s, _ := byLabel["resource"].AsString(); s != "/desc.xml" {
		t.Errorf("resource = %q", s)
	}
	back, err := m.Implode(children)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := back.AsString(); s != "http://10.0.0.2:5431/desc.xml" {
		t.Errorf("implode = %q", s)
	}
}

func TestURLExplodeDefaults(t *testing.T) {
	children, err := explode(message.Str("http://example.com"))
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]message.Value{}
	for _, c := range children {
		byLabel[c.Label] = c.Value
	}
	if p, _ := byLabel["port"].AsInt(); p != 80 {
		t.Errorf("default http port = %d, want 80", p)
	}
	if r, _ := byLabel["resource"].AsString(); r != "/" {
		t.Errorf("default resource = %q", r)
	}
}

// explode runs URLMarshaller.Explode on a LOCATION field of a fresh
// message and returns the field's children.
func explode(v message.Value) ([]*message.Field, error) {
	msg := message.New("SSDP", "SSDPResponse")
	f := msg.NewField("LOCATION", v)
	err := URLMarshaller{}.Explode(msg, f, v)
	return f.Children, err
}

// explodeByNetURL is Explode as it was before the hand split: every
// URL through url.Parse. It is the oracle the hand split must agree
// with.
func explodeByNetURL(s string) (scheme, host string, port int64, resource string, err error) {
	u, err := url.Parse(strings.TrimSpace(s))
	if err != nil {
		return "", "", 0, "", err
	}
	if p := u.Port(); p != "" {
		if port, err = strconv.ParseInt(p, 10, 32); err != nil {
			return "", "", 0, "", err
		}
	} else if u.Scheme == "http" {
		port = 80
	}
	resource = u.Path
	if resource == "" {
		resource = "/"
	}
	return u.Scheme, u.Hostname(), port, resource, nil
}

// The hand split of a plain URL gives the children url.Parse gives, and
// a URL it declines fails or succeeds as url.Parse does: over a table
// of the forms discovery protocols advertise and the ones net/url reads
// differently, and over random strings of URL bytes.
func TestURLExplodeAgreesWithNetURL(t *testing.T) {
	inputs := []string{
		"http://10.0.0.2:5431/desc.xml", "http://example.com", "http://example.com/", " http://h:80/a/b \r\n",
		"HTTP://h/x", "http://h:/x", "http://:8080/x", "http:///x", "https://h:443", "ftp://h/x",
		"http://h:99999999999/x", "http://h:8a/x", "http://a:b:80/x", "http://[::1]:80/x", "http://u@h/x",
		"http://h/a%20b", "http://h/x?q=1", "http://h/x#f", "h:80/x", "/x", "", "://h", "1http://h",
		"http://h/a b", "http://h/a\x7f", "http://h//x", "http://h:0080/x", "sip+tls://h.example:5061/r",
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "htp:/0123456789.abAB-_~!$&'()*+,;=%?#@[] "
	for i := 0; i < 20000; i++ {
		b := []byte("http://")
		if i%3 == 0 {
			b = b[:0]
		}
		for n := rng.Intn(16); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		children, err := explode(message.Str(in))
		scheme, host, port, resource, werr := explodeByNetURL(in)
		if (err != nil) != (werr != nil) {
			t.Fatalf("Explode(%q) error %v, url.Parse error %v", in, err, werr)
		}
		if err != nil {
			continue
		}
		got := make([]string, len(children))
		for i, c := range children {
			got[i] = c.Label + "=" + c.Value.Text()
		}
		want := []string{"protocol=" + scheme, "address=" + host, "port=" + strconv.FormatInt(port, 10), "resource=" + resource}
		if !slices.Equal(got, want) {
			t.Fatalf("Explode(%q) = %v, url.Parse gives %v", in, got, want)
		}
	}
}

// A pooled message explodes a plain URL into children it already
// holds: no url.URL and no child slice of its own.
func TestURLExplodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	v := message.Str("http://127.0.0.1:5431/desc.xml")
	allocs := testing.AllocsPerRun(100, func() {
		msg := message.NewPooled("SSDP", "SSDPResponse")
		f := msg.NewField("LOCATION", v)
		if err := (URLMarshaller{}).Explode(msg, f, v); err != nil {
			t.Fatal(err)
		}
		msg.Release()
	})
	if allocs != 0 {
		t.Fatalf("Explode of a plain URL allocates %.1f times, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

func TestURLImplodeMissing(t *testing.T) {
	m := URLMarshaller{}
	if _, err := m.Implode(nil); err == nil {
		t.Fatal("missing children should fail")
	}
}

func TestIPv4Roundtrip(t *testing.T) {
	m := IPv4Marshaller{}
	enc, err := m.AppendMarshal(nil, message.Str("239.255.255.253"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, []byte{239, 255, 255, 253}) {
		t.Fatalf("enc = %v", enc)
	}
	v, err := m.Unmarshal(string(enc), 32)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "239.255.255.253" {
		t.Fatalf("roundtrip = %q", s)
	}
	if _, err := m.AppendMarshal(nil, message.Str("1.2.3"), 32); err == nil {
		t.Error("3 octets should fail")
	}
	if _, err := m.AppendMarshal(nil, message.Str("1.2.3.999"), 32); err == nil {
		t.Error("octet overflow should fail")
	}
	if _, err := m.Unmarshal("\x01\x02", 32); err == nil {
		t.Error("short data should fail")
	}
}

// Property: Integer marshal/unmarshal is identity for values fitting the
// width.
func TestQuickIntegerRoundtrip(t *testing.T) {
	m := IntegerMarshaller{}
	f := func(raw uint64, width uint8) bool {
		bits := int(width%64) + 1
		var v uint64
		if bits == 64 {
			v = raw
		} else {
			v = raw % (1 << uint(bits))
		}
		enc, err := m.AppendMarshal(nil, message.Int(int64(v)), bits)
		if err != nil {
			// int64 overflow for 64-bit values with the high bit set
			// is expected to fail (negative check).
			return int64(v) < 0
		}
		back, err := m.Unmarshal(string(enc), bits)
		if err != nil {
			return false
		}
		got, _ := back.AsInt()
		return uint64(got) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FQDN roundtrips for arbitrary label sets.
func TestQuickFQDNRoundtrip(t *testing.T) {
	m := FQDNMarshaller{}
	f := func(parts []uint8) bool {
		labels := make([]string, 0, len(parts))
		for i, p := range parts {
			n := int(p%20) + 1
			label := ""
			for j := 0; j < n; j++ {
				label += string(rune('a' + (i+j)%26))
			}
			labels = append(labels, label)
		}
		name := ""
		for i, l := range labels {
			if i > 0 {
				name += "."
			}
			name += l
		}
		enc, err := m.AppendMarshal(nil, message.Str(name), 0)
		if err != nil {
			return false
		}
		v, err := m.Unmarshal(string(enc), 0)
		if err != nil {
			return false
		}
		s, _ := v.AsString()
		return s == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type fakeCtx struct {
	lengths map[string]int
	total   int
	values  map[string]message.Value
	counts  map[string]int
}

func (f fakeCtx) EncodedLength(l string) (int, error) {
	n, ok := f.lengths[l]
	if !ok {
		return 0, fmt.Errorf("no field %q", l)
	}
	return n, nil
}
func (f fakeCtx) TotalLength() (int, error) { return f.total, nil }
func (f fakeCtx) FieldValue(l string) (message.Value, error) {
	v, ok := f.values[l]
	if !ok {
		return message.Value{}, fmt.Errorf("no field %q", l)
	}
	return v, nil
}
func (f fakeCtx) Count(l string) (int, error) {
	n, ok := f.counts[l]
	if !ok {
		return 0, fmt.Errorf("no group %q", l)
	}
	return n, nil
}

func TestBuiltinFuncs(t *testing.T) {
	reg := NewFuncRegistry()
	ctx := fakeCtx{
		lengths: map[string]int{"URLEntry": 17},
		total:   64,
		values:  map[string]message.Value{"XID": message.Int(9)},
		counts:  map[string]int{"Answers": 3},
	}

	fn, err := reg.Lookup("f-length")
	if err != nil {
		t.Fatal(err)
	}
	v, err := fn(ctx, []string{"URLEntry"})
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 17 {
		t.Errorf("f-length = %d", i)
	}
	if _, err := fn(ctx, nil); err == nil {
		t.Error("f-length with no args should fail")
	}

	fn, _ = reg.Lookup("f-totallength")
	v, err = fn(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 64 {
		t.Errorf("f-totallength = %d", i)
	}

	fn, _ = reg.Lookup("f-count")
	v, err = fn(ctx, []string{"Answers"})
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 3 {
		t.Errorf("f-count = %d", i)
	}

	fn, _ = reg.Lookup("f-value")
	v, err = fn(ctx, []string{"XID"})
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 9 {
		t.Errorf("f-value = %d", i)
	}

	if _, err := reg.Lookup("f-nope"); err == nil {
		t.Error("unknown func should fail")
	}
	if err := reg.Register("f-length", fLength); err == nil {
		t.Error("duplicate func should fail")
	}
}
