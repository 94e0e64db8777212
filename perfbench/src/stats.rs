//! Order statistics and a minimal JSON writer (the benchmark has no
//! serializer to lean on).

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `max / mean` of a load vector; 1 for a single or an idle shard set.
pub fn skew(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    xs.iter().copied().fold(0.0, f64::max) / mean
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A flat JSON object built field by field.
pub struct Json {
    fields: Vec<String>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Json {
    pub fn object() -> Self {
        Json { fields: Vec::new() }
    }

    /// `"name": {"value": v, "unit": "u"}`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }

    pub fn num(&mut self, name: &str, value: f64) {
        self.fields.push(format!("\"{name}\": {}", number(value)));
    }

    pub fn str(&mut self, name: &str, value: &str) {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields.push(format!("\"{name}\": \"{escaped}\""));
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}
