// Package geo provides the geodesic primitives CORGI builds on: latitude/
// longitude points, haversine great-circle distance, and a local
// equirectangular projection used to lay hexagonal grids over a region.
//
// All distances are in kilometers, matching the paper's convention of
// expressing the privacy budget epsilon in km^-1.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by the haversine formula.
const EarthRadiusKm = 6371.0088

// LatLng is a geographic point in degrees.
type LatLng struct {
	Lat float64 // degrees, [-90, 90]
	Lng float64 // degrees, [-180, 180]
}

// String implements fmt.Stringer.
func (p LatLng) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lng)
}

// Valid reports whether the point lies in the legal lat/lng domain.
func (p LatLng) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

// Radians returns the point in radians.
func (p LatLng) Radians() (lat, lng float64) {
	return p.Lat * math.Pi / 180, p.Lng * math.Pi / 180
}

// Haversine returns the great-circle distance between a and b in kilometers.
// This is the distance function d_{i,j} used throughout the paper (Sec. 2.1)
// and the utility metric of Equ. (3).
func Haversine(a, b LatLng) float64 {
	lat1, lng1 := a.Radians()
	lat2, lng2 := b.Radians()
	dLat := lat2 - lat1
	dLng := lng2 - lng1
	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLng*sinLng
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// XY is a point on a local planar projection, in kilometers.
type XY struct {
	X float64
	Y float64
}

// Dist returns the Euclidean distance between two projected points (km).
func (p XY) Dist(q XY) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p+q.
func (p XY) Add(q XY) XY { return XY{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p XY) Scale(f float64) XY { return XY{p.X * f, p.Y * f} }

// Projection is a local equirectangular (plate carrée) projection anchored at
// an origin point. Over city-scale regions (tens of km) it is accurate to a
// fraction of a percent, which is ample for grid construction; all *reported*
// distances still use Haversine on the unprojected coordinates.
type Projection struct {
	origin LatLng
	cosLat float64
}

// NewProjection returns a projection anchored at origin.
func NewProjection(origin LatLng) *Projection {
	lat, _ := origin.Radians()
	return &Projection{origin: origin, cosLat: math.Cos(lat)}
}

// Origin returns the anchor point.
func (pr *Projection) Origin() LatLng { return pr.origin }

// Forward maps a geographic point to local planar coordinates in km.
func (pr *Projection) Forward(p LatLng) XY {
	kmPerDegLat := math.Pi / 180 * EarthRadiusKm
	return XY{
		X: (p.Lng - pr.origin.Lng) * kmPerDegLat * pr.cosLat,
		Y: (p.Lat - pr.origin.Lat) * kmPerDegLat,
	}
}

// Inverse maps local planar coordinates back to a geographic point.
func (pr *Projection) Inverse(q XY) LatLng {
	kmPerDegLat := math.Pi / 180 * EarthRadiusKm
	return LatLng{
		Lat: pr.origin.Lat + q.Y/kmPerDegLat,
		Lng: pr.origin.Lng + q.X/(kmPerDegLat*pr.cosLat),
	}
}

// BoundingBox is a lat/lng axis-aligned rectangle.
type BoundingBox struct {
	MinLat, MinLng, MaxLat, MaxLng float64
}

// Contains reports whether p lies inside the box (inclusive).
func (b BoundingBox) Contains(p LatLng) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lng >= b.MinLng && p.Lng <= b.MaxLng
}

// Center returns the box midpoint.
func (b BoundingBox) Center() LatLng {
	return LatLng{Lat: (b.MinLat + b.MaxLat) / 2, Lng: (b.MinLng + b.MaxLng) / 2}
}

// SanFrancisco is the bounding box of the San Francisco region used by the
// paper's Gowalla sample (Sec. 6.1).
var SanFrancisco = BoundingBox{
	MinLat: 37.70, MinLng: -122.52,
	MaxLat: 37.83, MaxLng: -122.35,
}
