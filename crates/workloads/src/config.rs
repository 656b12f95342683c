//! Workload configuration.

use std::fmt;

/// Configuration for building one workload instance.
///
/// The same application can be built broken (`fixed = false`, containing
/// whatever sharing problem the original benchmark had) or fixed
/// (`fixed = true`, with the paper's padding fix applied). Comparing the
/// two runs gives the *real* improvement that Cheetah's *predicted*
/// improvement is judged against (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct AppConfig {
    /// Worker threads per parallel phase.
    pub threads: u32,
    /// Work multiplier; 1.0 is the calibrated default size (hundreds of
    /// thousands to a few million accesses). Tests use smaller scales.
    pub scale: f64,
    /// Apply the padding fix (where the app has one).
    pub fixed: bool,
    /// Seed for randomized access patterns.
    pub seed: u64,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            threads: 16,
            scale: 1.0,
            fixed: false,
            seed: 42,
        }
    }
}

impl AppConfig {
    /// Default configuration with the given thread count.
    pub fn with_threads(threads: u32) -> Self {
        AppConfig {
            threads,
            ..AppConfig::default()
        }
    }

    /// Returns a copy with the padding fix applied.
    pub fn fixed(mut self) -> Self {
        self.fixed = true;
        self
    }

    /// Returns a copy scaled by `scale`.
    pub fn scaled(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Scales an iteration count, keeping at least one iteration.
    pub fn iters(&self, base: u64) -> u64 {
        ((base as f64 * self.scale) as u64).max(1)
    }

    /// Validates the configuration: at least one thread and a positive,
    /// finite scale. An app's own thread limit is checked by
    /// [`App::try_build`](crate::App::try_build).
    pub fn validate(&self) -> Result<(), AppConfigError> {
        if self.threads == 0 {
            return Err(AppConfigError::NoThreads);
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(AppConfigError::BadScale(self.scale));
        }
        Ok(())
    }
}

/// Why a workload cannot be built with an [`AppConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum AppConfigError {
    /// `threads` is zero.
    NoThreads,
    /// `scale` is not a positive finite number.
    BadScale(f64),
    /// The app supports at most `max` worker threads.
    TooManyThreads {
        /// The app's registry name.
        app: &'static str,
        /// The requested thread count.
        threads: u32,
        /// The app's limit.
        max: u32,
    },
}

impl fmt::Display for AppConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppConfigError::NoThreads => f.write_str("at least one worker thread required"),
            AppConfigError::BadScale(scale) => {
                write!(f, "scale must be positive and finite, got {scale}")
            }
            AppConfigError::TooManyThreads { app, threads, max } => {
                write!(f, "{app} supports at most {max} threads, got {threads}")
            }
        }
    }
}

impl std::error::Error for AppConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let config = AppConfig::with_threads(8).fixed().scaled(0.5);
        assert_eq!(config.threads, 8);
        assert!(config.fixed);
        assert_eq!(config.scale, 0.5);
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn iters_scale_and_floor() {
        assert_eq!(AppConfig::default().iters(100), 100);
        assert_eq!(AppConfig::default().scaled(0.25).iters(100), 25);
        assert_eq!(AppConfig::default().scaled(0.0001).iters(100), 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        assert_eq!(
            AppConfig::with_threads(0).validate(),
            Err(AppConfigError::NoThreads)
        );
        // `App::build` keeps its documented panic.
        crate::find("blackscholes")
            .expect("registered")
            .build(&AppConfig::with_threads(0));
    }

    #[test]
    fn non_positive_or_non_finite_scale_rejected() {
        for scale in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                AppConfig::default().scaled(scale).validate(),
                Err(AppConfigError::BadScale(scale))
            );
        }
        let nan = AppConfig::default().scaled(f64::NAN).validate();
        assert!(matches!(nan, Err(AppConfigError::BadScale(s)) if s.is_nan()));
    }
}
