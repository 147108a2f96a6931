package timeslot

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

var epoch = time.Date(2016, 3, 7, 5, 13, 0, 0, time.UTC) // a Monday, mid-morning

func TestNewCalendarValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewCalendar(epoch, 0); err == nil {
		t.Error("width 0 should be rejected")
	}
	if _, err := NewCalendar(epoch, -time.Minute); err == nil {
		t.Error("negative width should be rejected")
	}
	if _, err := NewCalendar(epoch, 7*time.Minute); err == nil {
		t.Error("7m does not divide 24h and should be rejected")
	}
	if _, err := NewCalendar(epoch, 10*time.Minute); err != nil {
		t.Errorf("10m should be accepted: %v", err)
	}
}

func TestEpochTruncatedToMidnight(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	want := time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)
	if !c.Epoch().Equal(want) {
		t.Errorf("Epoch = %v, want %v", c.Epoch(), want)
	}
}

func TestSlotAndStartRoundTrip(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	for s := -5; s < 2000; s += 37 {
		start := c.Start(s)
		if got := c.Slot(start); got != s {
			t.Fatalf("Slot(Start(%d)) = %d", s, got)
		}
		// Anywhere inside the slot maps back to it.
		if got := c.Slot(start.Add(9*time.Minute + 59*time.Second)); got != s {
			t.Fatalf("Slot inside slot %d = %d", s, got)
		}
	}
}

func TestSlotsPerDayWeek(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	if c.SlotsPerDay() != 144 {
		t.Errorf("SlotsPerDay = %d, want 144", c.SlotsPerDay())
	}
	if c.SlotsPerWeek() != 1008 {
		t.Errorf("SlotsPerWeek = %d, want 1008", c.SlotsPerWeek())
	}
}

// slotOfWeek returns the within-week class of absolute slot s, in
// [0, SlotsPerWeek). Class 0 is the first slot of the epoch's weekday; the
// class therefore keys "same weekday, same time of day" across weeks.
func slotOfWeek(c *Calendar, s int) int {
	n := c.SlotsPerWeek()
	m := s % n
	if m < 0 {
		m += n
	}
	return m
}

func TestSlotOfDayAndWeek(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	// Slot 0 begins at midnight Monday.
	if c.SlotOfDay(0) != 0 || slotOfWeek(c, 0) != 0 {
		t.Error("slot 0 classes wrong")
	}
	// One week later, the same class recurs.
	if slotOfWeek(c, 1008) != 0 {
		t.Errorf("slotOfWeek(1008) = %d", slotOfWeek(c, 1008))
	}
	if c.SlotOfDay(144+7) != 7 {
		t.Errorf("SlotOfDay(151) = %d", c.SlotOfDay(151))
	}
	// Negative slots wrap correctly.
	if c.SlotOfDay(-1) != 143 {
		t.Errorf("SlotOfDay(-1) = %d", c.SlotOfDay(-1))
	}
	if slotOfWeek(c, -1) != 1007 {
		t.Errorf("slotOfWeek(-1) = %d", slotOfWeek(c, -1))
	}
}

func TestDayOfSlot(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	cases := []struct{ slot, day int }{
		{0, 0}, {143, 0}, {144, 1}, {287, 1}, {288, 2}, {-1, -1}, {-144, -1}, {-145, -2},
	}
	for _, tc := range cases {
		if got := c.DayOfSlot(tc.slot); got != tc.day {
			t.Errorf("DayOfSlot(%d) = %d, want %d", tc.slot, got, tc.day)
		}
	}
}

func TestHourOfSlot(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	if got := c.HourOfSlot(0); got != 0 {
		t.Errorf("HourOfSlot(0) = %d", got)
	}
	if got := c.HourOfSlot(6 * 8); got != 8 { // 8am: 6 slots per hour
		t.Errorf("HourOfSlot(48) = %d, want 8", got)
	}
	// Wide slots (2h) fall back to start-time hour.
	c2 := MustCalendar(epoch, 2*time.Hour)
	if got := c2.HourOfSlot(3); got != 6 {
		t.Errorf("2h-calendar HourOfSlot(3) = %d, want 6", got)
	}
}

// TestHourOfSlotEveryWidth: a slot's hour is its start's wall-clock hour
// on calendars whose slots divide an hour (10 and 16 minutes), divide a day
// but not an hour (45 minutes) and span hours (2 hours). Histories accept
// any slot below 2³¹, so in the last whole week below it the hours must
// still repeat daily, the start must still be at that hour, and Slot must
// still invert Start.
func TestHourOfSlotEveryWidth(t *testing.T) {
	t.Parallel()
	for _, width := range []time.Duration{10 * time.Minute, 16 * time.Minute, 45 * time.Minute, 2 * time.Hour} {
		c := MustCalendar(epoch, width)
		week := c.SlotsPerWeek()
		for s := 0; s < 2*week; s++ {
			if got, want := c.HourOfSlot(s), c.Start(s).Hour(); got != want {
				t.Fatalf("%v calendar: HourOfSlot(%d) = %d, but slot %d starts at %v", width, s, got, s, c.Start(s))
			}
		}
		last := (math.MaxInt32/week - 1) * week
		for k := 0; k < week; k++ {
			s := last + k
			if got, want := c.HourOfSlot(s), c.HourOfSlot(k); got != want {
				t.Fatalf("%v calendar: HourOfSlot(%d) = %d, a whole number of weeks after slot %d (hour %d)", width, s, got, k, want)
			}
			if got, want := c.Start(s).Hour(), c.HourOfSlot(k); got != want {
				t.Fatalf("%v calendar: slot %d starts at %v, want hour %d", width, s, c.Start(s), want)
			}
			if got := c.Slot(c.Start(s)); got != s {
				t.Fatalf("%v calendar: Slot(Start(%d)) = %d", width, s, got)
			}
		}
	}
}

func TestNegativeSlots(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	before := c.Epoch().Add(-5 * time.Minute)
	if got := c.Slot(before); got != -1 {
		t.Errorf("Slot 5m before epoch = %d, want -1", got)
	}
	before = c.Epoch().Add(-10 * time.Minute)
	if got := c.Slot(before); got != -1 {
		t.Errorf("Slot exactly 10m before epoch = %d, want -1", got)
	}
	before = c.Epoch().Add(-10*time.Minute - time.Nanosecond)
	if got := c.Slot(before); got != -2 {
		t.Errorf("Slot just over 10m before epoch = %d, want -2", got)
	}
}

func TestProfileClass(t *testing.T) {
	t.Parallel()
	c := MustCalendar(epoch, 10*time.Minute)
	if c.NumProfileClasses() != 288 {
		t.Errorf("NumProfileClasses = %d, want 288", c.NumProfileClasses())
	}
	// Monday (epoch day) slot 0 is weekday class 0.
	if got := c.ProfileClass(0); got != 0 {
		t.Errorf("ProfileClass(0) = %d", got)
	}
	// Tuesday 00:00 pools with Monday 00:00.
	if got := c.ProfileClass(144); got != 0 {
		t.Errorf("ProfileClass(Tue 00:00) = %d", got)
	}
	// Saturday 00:00 (5 days after Monday epoch) is weekend class 144.
	if got := c.ProfileClass(5 * 144); got != 144 {
		t.Errorf("ProfileClass(Sat 00:00) = %d", got)
	}
	// Sunday 08:00 is weekend class 144 + 48.
	if got := c.ProfileClass(6*144 + 48); got != 144+48 {
		t.Errorf("ProfileClass(Sun 08:00) = %d", got)
	}
	// The next Monday is weekday again.
	if got := c.ProfileClass(7 * 144); got != 0 {
		t.Errorf("ProfileClass(next Mon) = %d", got)
	}
}

// TestProfileClassWeekly: histories accept any slot below 2³¹, so the
// profile class must repeat every week over that whole range and before
// the epoch. Where a slot's start fits in a time.Time the class must also
// match the wall-clock weekday, for a Monday and a Saturday epoch.
func TestProfileClassWeekly(t *testing.T) {
	t.Parallel()
	for _, e := range []time.Time{epoch, time.Date(2016, 3, 12, 0, 0, 0, 0, time.UTC)} {
		c := MustCalendar(e, 10*time.Minute)
		perDay := c.SlotsPerDay()
		wallClass := func(s int) int {
			if wd := c.Start(s).Weekday(); wd == time.Saturday || wd == time.Sunday {
				return perDay + c.SlotOfDay(s)
			}
			return c.SlotOfDay(s)
		}
		for s := -20000; s < 200000; s++ {
			if got, want := c.ProfileClass(s), wallClass(s); got != want {
				t.Fatalf("epoch %v: ProfileClass(%d) = %d, wall-clock class %d", e, s, got, want)
			}
		}
		week := c.SlotsPerWeek()
		starts := []int{
			-3 * week,
			15252 * week,                    // past 2⁶³ ns after the epoch
			(math.MaxInt32/week - 1) * week, // the last whole week below 2³¹
		}
		for _, start := range starts {
			for k := 0; k < week; k++ {
				if got, want := c.ProfileClass(start+k), c.ProfileClass(k); got != want {
					t.Fatalf("epoch %v: ProfileClass(%d) = %d, a whole number of weeks after slot %d (class %d)",
						e, start+k, got, k, want)
				}
			}
		}
	}
}

// TestSlotsPerDayStored: a calendar computes its slots per day once, and
// SlotsPerDay, SlotOfDay, DayOfSlot, HourOfSlot and ProfileClass answer as
// they did when each divided 24h by the width on every call. It checks
// every whole-second width that divides 24h and a few sub-second ones, at
// slots around the epoch and at random slots of either sign.
func TestSlotsPerDayStored(t *testing.T) {
	t.Parallel()
	widths := []time.Duration{time.Nanosecond, time.Microsecond, 250 * time.Millisecond}
	for sec := 1; sec <= 24*60*60; sec++ {
		if (24*60*60)%sec == 0 {
			widths = append(widths, time.Duration(sec)*time.Second)
		}
	}
	if len(widths) != 3+96 {
		t.Fatalf("%d whole-second widths divide a day, want 96", len(widths)-3)
	}
	rng := rand.New(rand.NewSource(5))
	for _, width := range widths {
		c := MustCalendar(epoch, width)
		n := int((24 * time.Hour) / width)
		if c.SlotsPerDay() != n || c.SlotsPerWeek() != 7*n || c.NumProfileClasses() != 2*n {
			t.Fatalf("%v: %d slots a day, %d a week, %d profile classes; want %d, %d, %d",
				width, c.SlotsPerDay(), c.SlotsPerWeek(), c.NumProfileClasses(), n, 7*n, 2*n)
		}
		slotOfDay := func(s int) int {
			m := s % n
			if m < 0 {
				m += n
			}
			return m
		}
		dayOfSlot := func(s int) int {
			if s < 0 {
				return -((-s + n - 1) / n)
			}
			return s / n
		}
		profileClass := func(s int) int {
			day, slot := s/n, s%n
			if slot < 0 {
				day, slot = day-1, slot+n
			}
			if wd := time.Weekday((int(c.epochWeekday) + day%7 + 7) % 7); wd == time.Saturday || wd == time.Sunday {
				return n + slot
			}
			return slot
		}
		for k := 0; k < 2000; k++ {
			s := k - 1000
			if k >= 200 {
				s = int(rng.Int63n(1<<62)) - 1<<61
			}
			if got, want := c.SlotOfDay(s), slotOfDay(s); got != want {
				t.Fatalf("%v: SlotOfDay(%d) = %d, want %d", width, s, got, want)
			}
			if got, want := c.DayOfSlot(s), dayOfSlot(s); got != want {
				t.Fatalf("%v: DayOfSlot(%d) = %d, want %d", width, s, got, want)
			}
			if got, want := c.HourOfSlot(s), int(time.Duration(slotOfDay(s))*width/time.Hour); got != want {
				t.Fatalf("%v: HourOfSlot(%d) = %d, want %d", width, s, got, want)
			}
			if got, want := c.ProfileClass(s), profileClass(s); got != want {
				t.Fatalf("%v: ProfileClass(%d) = %d, want %d", width, s, got, want)
			}
		}
	}
}
