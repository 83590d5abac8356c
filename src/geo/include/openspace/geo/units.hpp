// Lightweight unit helpers.
// units-file: these ARE the unit conversions; each helper names its unit.
//
// The library uses SI doubles internally (meters, seconds, hertz, watts,
// radians). These helpers make call sites explicit about units without the
// cost or friction of a full dimensional-analysis library: conversion
// functions are constexpr and named after the unit they accept.
#pragma once

#include <numbers>

namespace openspace {

inline constexpr double kSpeedOfLightMps = 299'792'458.0;
inline constexpr double kBoltzmannJPerK = 1.380'649e-23;

// ---- angles ---------------------------------------------------------------

/// Degrees -> radians.
constexpr double deg2rad(double deg) noexcept {
  return deg * std::numbers::pi / 180.0;
}

/// Radians -> degrees.
constexpr double rad2deg(double rad) noexcept {
  return rad * 180.0 / std::numbers::pi;
}

// ---- distance -------------------------------------------------------------

constexpr double km(double v) noexcept { return v * 1'000.0; }
constexpr double meters(double v) noexcept { return v; }

// ---- time -----------------------------------------------------------------

constexpr double seconds(double v) noexcept { return v; }
constexpr double minutes(double v) noexcept { return v * 60.0; }
constexpr double hours(double v) noexcept { return v * 3'600.0; }
constexpr double milliseconds(double v) noexcept { return v * 1e-3; }
constexpr double microseconds(double v) noexcept { return v * 1e-6; }

/// Seconds -> milliseconds, for reporting.
constexpr double toMilliseconds(double s) noexcept { return s * 1e3; }

// ---- frequency / data rate ------------------------------------------------

constexpr double megahertz(double v) noexcept { return v * 1e6; }
constexpr double gigahertz(double v) noexcept { return v * 1e9; }

constexpr double bps(double v) noexcept { return v; }
constexpr double gbps(double v) noexcept { return v * 1e9; }

// ---- power ----------------------------------------------------------------

constexpr double watts(double v) noexcept { return v; }

/// Watts -> dBW.
double wattsToDbw(double w);
/// dBW -> watts.
double dbwToWatts(double dbw);
/// Watts -> dBm.
double wattsToDbm(double w);
/// dBm -> watts.
double dbmToWatts(double dbm);
/// Linear ratio -> dB.
double ratioToDb(double ratio);
/// dB -> linear ratio.
double dbToRatio(double db);

}  // namespace openspace
