//! Dataset specifications.

use crate::error::DataError;

/// Which statistical family a synthetic dataset imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// CIFAR-100-like: coarse classes, low inter-class similarity,
    /// small images.
    CifarLike,
    /// CUB-200-like: fine-grained classes clustered into genera, higher
    /// resolution, high inter-class similarity.
    CubLike,
}

impl DatasetKind {
    /// The default specification of this family
    /// ([`DatasetSpec::cifar_like`] / [`DatasetSpec::cub_like`]).
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetKind::CifarLike => DatasetSpec::cifar_like(),
            DatasetKind::CubLike => DatasetSpec::cub_like(),
        }
    }

    /// CLI name, the inverse of [`DatasetKind::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::CifarLike => "cifar",
            DatasetKind::CubLike => "cub",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// Names the valid choices when `s` is not one of them.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cifar" => Ok(DatasetKind::CifarLike),
            "cub" => Ok(DatasetKind::CubLike),
            other => Err(format!("unknown dataset `{other}` (use cifar or cub)")),
        }
    }
}

/// Specification of a synthetic dataset; construct with
/// [`DatasetSpec::cifar_like`] / [`DatasetSpec::cub_like`] and refine with
/// the builder methods.
///
/// Defaults are scaled so that the complete experiment suite trains on a
/// laptop CPU; raise `classes`, `train_per_class` and `image_size` to
/// approach the real datasets' scale.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset family.
    pub kind: DatasetKind,
    /// Number of classes.
    pub num_classes: usize,
    /// Training samples per class.
    pub num_train_per_class: usize,
    /// Test samples per class.
    pub num_test_per_class: usize,
    /// Square image extent in pixels.
    pub size: usize,
    /// Image channels (3 = RGB).
    pub channels: usize,
    /// Number of genera for fine-grained datasets (ignored for
    /// [`DatasetKind::CifarLike`]).
    pub num_genera: usize,
    /// Pixel noise standard deviation.
    pub noise: f32,
    /// Number of per-sample *distractor* texture components: structured
    /// clutter that is independent of the class, which (unlike pixel
    /// noise) cannot be averaged away and therefore caps attainable
    /// accuracy below 100%.
    pub distractors: usize,
    /// Amplitude of the distractor components.
    pub distractor_amp: f32,
    /// Standard deviation of the per-sample phase jitter ("pose"
    /// variation of the class texture).
    pub jitter: f32,
    /// Root RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// CIFAR-100 substitute defaults, calibrated so a quarter-width VGG
    /// plateaus at ≈70–75% test accuracy (the paper's CIFAR-100 regime):
    /// 16 classes, 16×16, 12 train + 12 test per class, heavy structured
    /// clutter.
    pub fn cifar_like() -> Self {
        DatasetSpec {
            kind: DatasetKind::CifarLike,
            num_classes: 16,
            num_train_per_class: 12,
            num_test_per_class: 12,
            size: 16,
            channels: 3,
            num_genera: 1,
            noise: 1.0,
            distractors: 6,
            distractor_amp: 1.5,
            jitter: 1.3,
            seed: 0xC1FA,
        }
    }

    /// CUB-200 substitute defaults, calibrated so a quarter-width VGG
    /// plateaus in the paper's CUB accuracy regime: 20 fine-grained
    /// classes in 5 genera, 20×20 ("large scale images" relative to the
    /// CIFAR substitute, as in the paper), 30 train + 10 test per class
    /// (CUB itself is small: ~30 images per class).
    pub fn cub_like() -> Self {
        DatasetSpec {
            kind: DatasetKind::CubLike,
            num_classes: 20,
            num_train_per_class: 30,
            num_test_per_class: 10,
            size: 20,
            channels: 3,
            num_genera: 5,
            noise: 0.6,
            distractors: 4,
            distractor_amp: 0.7,
            jitter: 0.8,
            seed: 0xCB20,
        }
    }

    /// Sets the class count (builder style).
    pub fn classes(mut self, n: usize) -> Self {
        self.num_classes = n;
        self
    }

    /// Sets training samples per class (builder style).
    pub fn train_per_class(mut self, n: usize) -> Self {
        self.num_train_per_class = n;
        self
    }

    /// Sets test samples per class (builder style).
    pub fn test_per_class(mut self, n: usize) -> Self {
        self.num_test_per_class = n;
        self
    }

    /// Sets the square image extent (builder style).
    pub fn image_size(mut self, s: usize) -> Self {
        self.size = s;
        self
    }

    /// Sets the genus count for fine-grained datasets (builder style).
    pub fn genera(mut self, n: usize) -> Self {
        self.num_genera = n;
        self
    }

    /// Sets the pixel-noise standard deviation (builder style).
    pub fn noise_std(mut self, sigma: f32) -> Self {
        self.noise = sigma;
        self
    }

    /// Sets the per-sample distractor count and amplitude (builder style).
    pub fn distractor(mut self, count: usize, amp: f32) -> Self {
        self.distractors = count;
        self.distractor_amp = amp;
        self
    }

    /// Sets the per-sample phase-jitter standard deviation (builder
    /// style).
    pub fn phase_jitter(mut self, sigma: f32) -> Self {
        self.jitter = sigma;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadSpec`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), DataError> {
        let bad = |field: &'static str, detail: String| Err(DataError::BadSpec { field, detail });
        if self.num_classes == 0 {
            return bad("classes", "must be > 0".into());
        }
        if self.num_train_per_class == 0 {
            return bad("train_per_class", "must be > 0".into());
        }
        if self.num_test_per_class == 0 {
            return bad("test_per_class", "must be > 0".into());
        }
        if self.size < 4 {
            return bad(
                "image_size",
                format!("{} is below the 4px minimum", self.size),
            );
        }
        if self.channels == 0 {
            return bad("channels", "must be > 0".into());
        }
        if self.num_genera == 0 {
            return bad("genera", "must be > 0".into());
        }
        if self.kind == DatasetKind::CubLike && self.num_genera > self.num_classes {
            return bad(
                "genera",
                format!(
                    "{} genera exceed {} classes",
                    self.num_genera, self.num_classes
                ),
            );
        }
        if !self.noise.is_finite() || self.noise < 0.0 {
            return bad("noise", format!("{} is not a valid std-dev", self.noise));
        }
        if !self.distractor_amp.is_finite() || self.distractor_amp < 0.0 {
            return bad(
                "distractor_amp",
                format!("{} is not a valid amplitude", self.distractor_amp),
            );
        }
        if !self.jitter.is_finite() || self.jitter < 0.0 {
            return bad("jitter", format!("{} is not a valid std-dev", self.jitter));
        }
        Ok(())
    }

    /// Total training samples.
    pub fn train_len(&self) -> usize {
        self.num_classes * self.num_train_per_class
    }

    /// Total test samples.
    pub fn test_len(&self) -> usize {
        self.num_classes * self.num_test_per_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(DatasetSpec::cifar_like().validate().is_ok());
        assert!(DatasetSpec::cub_like().validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let s = DatasetSpec::cifar_like()
            .classes(5)
            .train_per_class(3)
            .test_per_class(2)
            .image_size(16)
            .noise_std(0.1)
            .with_seed(99);
        assert_eq!(s.num_classes, 5);
        assert_eq!(s.train_len(), 15);
        assert_eq!(s.test_len(), 10);
        assert_eq!(s.size, 16);
        assert_eq!(s.seed, 99);
    }

    #[test]
    fn invalid_fields_are_named() {
        let err = DatasetSpec::cifar_like().classes(0).validate().unwrap_err();
        assert!(matches!(
            err,
            DataError::BadSpec {
                field: "classes",
                ..
            }
        ));
        let err = DatasetSpec::cub_like()
            .genera(100)
            .classes(10)
            .validate()
            .unwrap_err();
        assert!(matches!(
            err,
            DataError::BadSpec {
                field: "genera",
                ..
            }
        ));
        let err = DatasetSpec::cifar_like()
            .image_size(2)
            .validate()
            .unwrap_err();
        assert!(matches!(
            err,
            DataError::BadSpec {
                field: "image_size",
                ..
            }
        ));
        let err = DatasetSpec::cifar_like()
            .noise_std(-1.0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, DataError::BadSpec { field: "noise", .. }));
    }
}
