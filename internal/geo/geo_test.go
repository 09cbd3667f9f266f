package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name string
		a, b LatLng
		want float64 // km
		tol  float64
	}{
		{"same point", LatLng{37.77, -122.42}, LatLng{37.77, -122.42}, 0, 1e-12},
		{"SF to LA", LatLng{37.7749, -122.4194}, LatLng{34.0522, -118.2437}, 559.12, 1.5},
		{"London to Paris", LatLng{51.5074, -0.1278}, LatLng{48.8566, 2.3522}, 343.5, 1.5},
		{"equator 1 deg lng", LatLng{0, 0}, LatLng{0, 1}, 111.19, 0.1},
		{"pole to pole", LatLng{90, 0}, LatLng{-90, 0}, math.Pi * EarthRadiusKm, 0.01},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Haversine(tc.a, tc.b)
			if math.Abs(got-tc.want) > tc.tol {
				t.Errorf("Haversine(%v,%v) = %.4f, want %.4f±%.2f", tc.a, tc.b, got, tc.want, tc.tol)
			}
		})
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2 float64) bool {
		a := LatLng{clampLat(lat1), clampLng(lng1)}
		b := LatLng{clampLat(lat2), clampLng(lng2)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2, lat3, lng3 float64) bool {
		a := LatLng{clampLat(lat1), clampLng(lng1)}
		b := LatLng{clampLat(lat2), clampLng(lng2)}
		c := LatLng{clampLat(lat3), clampLng(lng3)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineNonNegative(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2 float64) bool {
		a := LatLng{clampLat(lat1), clampLng(lng1)}
		b := LatLng{clampLat(lat2), clampLng(lng2)}
		return Haversine(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 { return clampTo(v, 90) }
func clampLng(v float64) float64 { return clampTo(v, 180) }

func clampTo(v, lim float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, lim)
}

func TestProjectionRoundTrip(t *testing.T) {
	origin := SanFrancisco.Center()
	pr := NewProjection(origin)
	f := func(dLat, dLng float64) bool {
		p := LatLng{
			Lat: origin.Lat + math.Mod(clampTo(dLat, 1), 0.2),
			Lng: origin.Lng + math.Mod(clampTo(dLng, 1), 0.2),
		}
		q := pr.Inverse(pr.Forward(p))
		return math.Abs(q.Lat-p.Lat) < 1e-9 && math.Abs(q.Lng-p.Lng) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectionDistanceAgreesWithHaversine(t *testing.T) {
	// City-scale: projected Euclidean distance should match haversine to <1%.
	origin := SanFrancisco.Center()
	pr := NewProjection(origin)
	pts := []LatLng{
		{37.70, -122.52}, {37.83, -122.35}, {37.7749, -122.4194},
		{37.76, -122.45}, {37.80, -122.40},
	}
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			hav := Haversine(pts[i], pts[j])
			eu := pr.Forward(pts[i]).Dist(pr.Forward(pts[j]))
			if hav > 0.5 && math.Abs(hav-eu)/hav > 0.01 {
				t.Errorf("pts %d-%d: haversine %.4f vs projected %.4f (>1%% off)", i, j, hav, eu)
			}
		}
	}
}

func TestProjectionOrigin(t *testing.T) {
	origin := LatLng{37.77, -122.42}
	pr := NewProjection(origin)
	if got := pr.Origin(); got != origin {
		t.Errorf("Origin() = %v, want %v", got, origin)
	}
	xy := pr.Forward(origin)
	if xy.X != 0 || xy.Y != 0 {
		t.Errorf("Forward(origin) = %v, want (0,0)", xy)
	}
}

func TestXYOps(t *testing.T) {
	p, q := XY{3, 4}, XY{1, 2}
	if d := p.Dist(XY{0, 0}); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if s := p.Add(q); s != (XY{4, 6}) {
		t.Errorf("Add = %v", s)
	}
	if s := p.Scale(2); s != (XY{6, 8}) {
		t.Errorf("Scale = %v", s)
	}
}

func TestBoundingBox(t *testing.T) {
	b := SanFrancisco
	if !b.Contains(b.Center()) {
		t.Error("box must contain its center")
	}
	if b.Contains(LatLng{0, 0}) {
		t.Error("box must not contain null island")
	}
	c := b.Center()
	if c.Lat <= b.MinLat || c.Lat >= b.MaxLat {
		t.Error("center latitude out of range")
	}
}

func TestLatLngValid(t *testing.T) {
	valid := []LatLng{{0, 0}, {90, 180}, {-90, -180}, {37.77, -122.42}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []LatLng{{91, 0}, {0, 181}, {-91, 0}, {0, -181}, {math.NaN(), 0}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}
