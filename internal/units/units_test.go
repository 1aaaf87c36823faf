package units

import "testing"

func TestTimeConversions(t *testing.T) {
	if got := Minutes(90).Hours(); got != 1.5 {
		t.Errorf("90min = %v h, want 1.5", got)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Meters(2.5).String(), "2.50m"},
		{Millimeters(6.7).String(), "6.7mm"},
		{SquareMillimeters(35.3).String(), "35.3mm²"},
		{Minutes(4.5).String(), "4.5min"},
		{Hours(13.6).String(), "13.6h"},
		{USD(99.5).String(), "$99.50"},
		{Gbps(400).String(), "400Gbps"},
		{DB(0.5).String(), "0.50dB"},
		{Watts(3.5).String(), "3.5W"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
