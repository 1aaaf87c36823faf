// Package units provides typed physical and economic quantities used
// throughout physdep. Keeping lengths, durations, money, and data rates in
// distinct types prevents the classic modeling bug of adding meters to
// minutes, and gives every report a single formatting point.
package units

import "fmt"

// Meters is a length in meters. Cable runs, tray segments, and walking
// distances are all expressed in meters.
type Meters float64

// Millimeters is a small length, used for cable diameters and bend radii.
type Millimeters float64

// SquareMillimeters is a cross-sectional area, used for tray and rack
// plenum occupancy accounting.
type SquareMillimeters float64

// Minutes is a labor or elapsed duration in minutes. Deployment effort is
// naturally expressed in technician-minutes.
type Minutes float64

// Hours converts to hours.
func (m Minutes) Hours() Hours { return Hours(m) / 60 }

// Hours is a duration in hours.
type Hours float64

// USD is a cost in US dollars. All capex and opex figures use USD.
type USD float64

// Gbps is a data rate in gigabits per second.
type Gbps float64

// DB is an optical power ratio in decibels, used for insertion-loss
// budgets through patch panels and optical circuit switches.
type DB float64

// Watts is electrical power, used for transceiver and switch power
// accounting.
type Watts float64

func (m Meters) String() string            { return fmt.Sprintf("%.2fm", float64(m)) }
func (mm Millimeters) String() string      { return fmt.Sprintf("%.1fmm", float64(mm)) }
func (a SquareMillimeters) String() string { return fmt.Sprintf("%.1fmm²", float64(a)) }
func (m Minutes) String() string           { return fmt.Sprintf("%.1fmin", float64(m)) }
func (h Hours) String() string             { return fmt.Sprintf("%.1fh", float64(h)) }
func (u USD) String() string               { return fmt.Sprintf("$%.2f", float64(u)) }
func (g Gbps) String() string              { return fmt.Sprintf("%gGbps", float64(g)) }
func (d DB) String() string                { return fmt.Sprintf("%.2fdB", float64(d)) }
func (w Watts) String() string             { return fmt.Sprintf("%.1fW", float64(w)) }
