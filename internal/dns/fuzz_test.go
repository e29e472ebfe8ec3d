package dns

import (
	"net"
	"reflect"
	"testing"
)

// packedForm is what Pack sends for m: names canonicalized, class 0 sent
// as IN, and an empty TXT record as one empty character-string. A message
// that round-trips through Pack and Unpack comes back in this form.
func packedForm(m *Message) *Message {
	out := *m
	out.Questions = nil
	for _, q := range m.Questions {
		q.Name = CanonicalName(q.Name)
		if q.Class == 0 {
			q.Class = ClassIN
		}
		out.Questions = append(out.Questions, q)
	}
	section := func(rrs []RR) []RR {
		var res []RR
		for _, r := range rrs {
			r.Name = CanonicalName(r.Name)
			if r.Class == 0 {
				r.Class = ClassIN
			}
			switch r.Type {
			case TypeNS, TypeCNAME:
				r.Target = CanonicalName(r.Target)
			case TypeTXT:
				if len(r.TXT) == 0 {
					r.TXT = []string{""}
				}
			case TypeSRV:
				srv := *r.SRV
				srv.Target = CanonicalName(srv.Target)
				r.SRV = &srv
			case TypeSOA:
				soa := *r.SOA
				soa.MName, soa.RName = CanonicalName(soa.MName), CanonicalName(soa.RName)
				r.SOA = &soa
			}
			res = append(res, r)
		}
		return res
	}
	out.Answers = section(m.Answers)
	out.Authority = section(m.Authority)
	out.Additional = section(m.Additional)
	return &out
}

// FuzzUnpack feeds arbitrary datagrams to Unpack, which parses whatever
// any UDP sender delivers. It must never panic, and a message it accepts
// and Pack re-encodes must unpack again to the same message in the form
// Pack sends.
func FuzzUnpack(f *testing.F) {
	for _, m := range []*Message{
		{ID: 1, RecursionDesired: true,
			Questions: []Question{{Name: "q0.q1.f2.loc.flame.arpa.", Type: TypeTXT, Class: ClassIN}}},
		{ID: 7, Response: true, Authoritative: true, Truncated: true, Rcode: RcodeNameError,
			Questions: []Question{{Name: "example.org.", Type: TypeA, Class: ClassIN}},
			Answers: []RR{
				{Name: "example.org.", Type: TypeA, Class: ClassIN, TTL: 300, IP: net.IPv4(10, 1, 2, 3)},
				{Name: "example.org.", Type: TypeAAAA, Class: ClassIN, TTL: 300, IP: net.ParseIP("fd00::1")},
				{Name: "alias.example.org.", Type: TypeCNAME, Class: ClassIN, TTL: 60, Target: "example.org."},
				{Name: "example.org.", Type: TypeTXT, Class: ClassIN, TTL: 120, TXT: []string{"v=flame1", ""}},
				{Name: "_flame._tcp.example.org.", Type: TypeSRV, Class: ClassIN, TTL: 60,
					SRV: &SRVData{Priority: 1, Weight: 2, Port: 8080, Target: "srv.example.org."}},
			},
			Authority: []RR{
				{Name: "example.org.", Type: TypeSOA, Class: ClassIN, TTL: 3600,
					SOA: &SOAData{MName: "ns.example.org.", RName: "admin.example.org.", Serial: 9}},
				{Name: "sub.example.org.", Type: TypeNS, Class: ClassIN, TTL: 3600, Target: "ns.sub.example.org."},
			},
			Additional: []RR{
				{Name: "ns.sub.example.org.", Type: TypeA, Class: ClassIN, TTL: 3600, IP: net.IPv4(127, 0, 0, 1)},
			},
		},
	} {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			return
		}
		back, err := Unpack(wire)
		if err != nil {
			t.Fatalf("Unpack(%x) = %+v; Pack gives %x, which does not unpack: %v", data, m, wire, err)
		}
		if want := packedForm(m); !reflect.DeepEqual(back, want) {
			t.Fatalf("Unpack(%x) = %+v; Pack gives %x, which unpacks to %+v, want %+v", data, m, wire, back, want)
		}
	})
}
