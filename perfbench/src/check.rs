//! Output checks against references recorded in `perfbench/reference/`.

use serde::Value;

/// Relative tolerance for simulated energies, latencies and artefact
/// cells: the bound EXPERIMENTS.md quotes for the solver hot path.
pub const SIM_RTOL: f64 = 2.2e-4;

/// Relative tolerance for engine energies per query.
pub const ENGINE_RTOL: f64 = 1e-9;

/// `true` when `got` is within `rtol` of `want`, relative to the larger
/// magnitude. Two NaNs agree; a NaN never agrees with a number.
pub fn close(got: f64, want: f64, rtol: f64) -> bool {
    if got.is_nan() || want.is_nan() {
        return got.is_nan() && want.is_nan();
    }
    got == want || (got - want).abs() <= rtol * got.abs().max(want.abs())
}

/// Compares labelled numeric series with their reference, returning the
/// first disagreement: a different label, length or value, or a NaN where
/// the reference has a number (or the reverse).
pub fn compare_series(
    got: &[(String, Vec<f64>)],
    want: &[(String, Vec<f64>)],
    rtol: f64,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} series, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for ((label, values), (ref_label, ref_values)) in got.iter().zip(want) {
        if label != ref_label {
            return Err(format!("series `{label}`, reference has `{ref_label}`"));
        }
        if values.len() != ref_values.len() {
            return Err(format!(
                "`{label}` has {} values, reference has {}",
                values.len(),
                ref_values.len()
            ));
        }
        for (i, (&v, &r)) in values.iter().zip(ref_values).enumerate() {
            if !close(v, r, rtol) {
                return Err(format!("`{label}`[{i}] = {v}, reference {r}"));
            }
        }
    }
    Ok(())
}

/// Any JSON value, parsed without a schema.
pub struct Json(pub Value);

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self(v.clone()))
    }
}

/// Parses a reference file embedded in the binary.
pub fn parse_reference(text: &str) -> Value {
    serde_json::from_str::<Json>(text)
        .expect("reference files are valid JSON")
        .0
}

/// Field `key` of a JSON object (`Null` when absent).
pub fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map().map_or(&Value::Null, |m| serde::map_get(m, key))
}

/// A JSON number, with `null` read as NaN.
pub fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Num(n) => n.as_f64(),
        _ => f64::NAN,
    }
}

/// A JSON array of numbers, with `null` read as NaN.
pub fn as_f64s(v: &Value) -> Vec<f64> {
    v.as_seq().unwrap_or_default().iter().map(as_f64).collect()
}

/// A JSON number that must be a whole number.
pub fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Num(n) => n.as_u64(),
        _ => None,
    }
}

/// Writes `v` as JSON: shortest round-trip digits, NaN as `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Writes a numeric array as JSON (NaN as `null`).
pub fn json_f64s(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", cells.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> Vec<(String, Vec<f64>)> {
        vec![
            ("x".to_string(), vec![1.0, 2.0]),
            ("e".to_string(), values.to_vec()),
        ]
    }

    #[test]
    fn identical_and_nearby_cells_pass() {
        let want = series(&[1.0e-15, f64::NAN, -3.0]);
        assert_eq!(compare_series(&want, &want, SIM_RTOL), Ok(()));
        let nudged = series(&[1.0001e-15, f64::NAN, -3.0]);
        assert_eq!(compare_series(&nudged, &want, SIM_RTOL), Ok(()));
    }

    #[test]
    fn a_perturbed_cell_is_flagged() {
        let want = series(&[1.0e-15, f64::NAN, -3.0]);
        let got = series(&[1.0e-15, f64::NAN, -3.001]);
        let err = compare_series(&got, &want, SIM_RTOL).unwrap_err();
        assert!(err.contains("`e`[2]"), "{err}");
    }

    #[test]
    fn a_nan_number_swap_is_flagged_both_ways() {
        let want = series(&[1.0, f64::NAN]);
        assert!(compare_series(&series(&[1.0, 2.0]), &want, SIM_RTOL).is_err());
        assert!(compare_series(&series(&[f64::NAN, f64::NAN]), &want, SIM_RTOL).is_err());
    }

    #[test]
    fn shape_changes_are_flagged() {
        let want = series(&[1.0, 2.0]);
        assert!(compare_series(&series(&[1.0]), &want, SIM_RTOL).is_err());
        let mut renamed = want.clone();
        renamed[1].0 = "f".to_string();
        assert!(compare_series(&renamed, &want, SIM_RTOL).is_err());
        assert!(compare_series(&want[..1], &want, SIM_RTOL).is_err());
    }

    #[test]
    fn numbers_round_trip_through_the_reference_format() {
        let values = [1.234_567_890_123e-15, f64::NAN, 0.1, 3.0];
        let text = format!("{{\"v\":{}}}", json_f64s(&values));
        let back = as_f64s(field(&parse_reference(&text), "v"));
        assert_eq!(back[0], values[0]);
        assert!(back[1].is_nan());
        assert_eq!(back[2], 0.1);
        assert_eq!(back[3], 3.0);
    }
}
