//! The per-layer prune schedule of HeadStart and every baseline in the
//! paper's Tables 1–3: prune one conv, score its inception, fine-tune,
//! then move to the next layer. Plain and journaled runs drive the same
//! [`prune_layers`] loop and differ only in what they do with each
//! finished unit.

use hs_core::{EngineObserver, EvalExecutor, LayerPruner, TelemetryObserver};
use hs_data::Dataset;
use hs_nn::accounting::analyze;
use hs_nn::surgery::{conv_sites, prune_feature_maps};
use hs_nn::{train, Network};
use hs_pruning::driver::LayerTrace;
use hs_pruning::{PruningCriterion, ScoreContext};
use hs_tensor::{Rng, Tensor};

use crate::config::{BaselineKind, Method};
use crate::error::RunnerError;
use crate::pipeline::Prepared;

/// How many training images a baseline criterion scores: a
/// class-balanced subset, because the generators interleave classes.
const SCORING_IMAGES: usize = 64;

/// How one conv's kept maps are chosen. Neither variant carries state
/// from one unit to the next, so a resumed run can build it afresh.
pub(crate) enum LayerStep {
    /// HeadStart's RL search, reporting every episode to telemetry.
    HeadStart {
        pruner: LayerPruner,
        observer: TelemetryObserver,
    },
    /// A baseline criterion keeping `keep_ratio` of each conv's maps,
    /// scored on the first [`SCORING_IMAGES`] training images.
    Baseline {
        criterion: Box<dyn PruningCriterion>,
        keep_ratio: f32,
        scoring_images: Tensor,
        scoring_labels: Vec<usize>,
    },
}

impl LayerStep {
    /// The step of a per-layer method under `prepared`'s budget; `seed`
    /// roots HeadStart's trace spans.
    ///
    /// # Errors
    ///
    /// [`RunnerError::BadConfig`] for a block-level method or a keep
    /// ratio outside `(0, 1]`.
    pub(crate) fn new(
        method: &Method,
        prepared: &Prepared,
        seed: u64,
    ) -> Result<Self, RunnerError> {
        match (method, method.headstart_config(&prepared.budget)) {
            (Method::HeadStartLayers { .. }, Some(cfg)) => Ok(LayerStep::HeadStart {
                observer: TelemetryObserver::from_config(&cfg).with_trace_seed(seed),
                pruner: LayerPruner::new(cfg),
            }),
            (Method::Baseline { kind, keep_ratio }, _) => {
                LayerStep::baseline(*kind, *keep_ratio, &prepared.ds)
            }
            _ => Err(RunnerError::BadConfig(format!(
                "{} is not a per-layer method",
                method.label()
            ))),
        }
    }

    /// A baseline step keeping `keep_ratio` of each conv's maps.
    ///
    /// # Errors
    ///
    /// [`RunnerError::BadConfig`] for a keep ratio outside `(0, 1]`.
    pub(crate) fn baseline(
        kind: BaselineKind,
        keep_ratio: f32,
        ds: &Dataset,
    ) -> Result<Self, RunnerError> {
        if !(0.0..=1.0).contains(&keep_ratio) || keep_ratio == 0.0 {
            return Err(RunnerError::BadConfig(format!(
                "keep ratio {keep_ratio} outside (0, 1]"
            )));
        }
        let scoring_n = SCORING_IMAGES.min(ds.train_labels.len());
        let idx: Vec<usize> = (0..scoring_n).collect();
        Ok(LayerStep::Baseline {
            criterion: kind.build(),
            keep_ratio,
            scoring_images: ds.train_images.index_select(0, &idx)?,
            scoring_labels: ds.train_labels[..scoring_n].to_vec(),
        })
    }

    /// Chooses the maps conv `ordinal` keeps and removes the rest by
    /// surgery, returning the kept indices.
    ///
    /// # Errors
    ///
    /// [`RunnerError::BadConfig`] for an ordinal past the last conv,
    /// plus search, criterion and surgery errors.
    pub(crate) fn prune(
        &mut self,
        net: &mut Network,
        ordinal: usize,
        ds: &Dataset,
        rng: &mut Rng,
        executor: &mut dyn EvalExecutor,
    ) -> Result<Vec<usize>, RunnerError> {
        let site = *conv_sites(net).get(ordinal).ok_or_else(|| {
            RunnerError::BadConfig(format!("conv ordinal {ordinal} out of range"))
        })?;
        match self {
            LayerStep::HeadStart { pruner, observer } => {
                observer.on_unit_start("layer", ordinal);
                let decision = pruner.prune_executed(net, ordinal, ds, rng, observer, executor)?;
                prune_feature_maps(net, site.conv, &decision.keep)?;
                Ok(decision.keep)
            }
            LayerStep::Baseline {
                criterion,
                keep_ratio,
                scoring_images,
                scoring_labels,
            } => {
                let maps = net.conv(site.conv)?.out_channels();
                let keep_count = ((maps as f32 * *keep_ratio).round() as usize).clamp(1, maps);
                let keep = {
                    let mut ctx = ScoreContext::new(net, site, scoring_images, scoring_labels, rng);
                    criterion.keep_set(&mut ctx, keep_count)?
                };
                prune_feature_maps(net, site.conv, &keep)?;
                criterion.post_surgery(net, site, &keep)?;
                Ok(keep)
            }
        }
    }
}

/// Prunes convs `start..` of `net` front to back. Each unit runs the
/// step (with its surgery), measures the inception accuracy, fine-tunes
/// under `prepared`'s budget, measures again and costs the model, then
/// hands `on_unit` the model and prune RNG as they stand, the unit's
/// trace row and the maps it kept. Returns the final test accuracy.
///
/// # Errors
///
/// Propagates step, training and evaluation errors, and the first error
/// `on_unit` returns.
pub(crate) fn prune_layers(
    prepared: &Prepared,
    step: &mut LayerStep,
    net: &mut Network,
    start: usize,
    rng: &mut Rng,
    executor: &mut dyn EvalExecutor,
    mut on_unit: impl FnMut(&Network, &Rng, LayerTrace, Vec<usize>) -> Result<(), RunnerError>,
) -> Result<f32, RunnerError> {
    let ds = &prepared.ds;
    let ft = prepared.finetune();
    for ordinal in start..net.conv_indices().len() {
        let conv_node = net.conv_indices()[ordinal];
        let maps_before = net.conv(conv_node)?.out_channels();
        let keep = step.prune(net, ordinal, ds, rng, executor)?;
        let inception_accuracy = train::evaluate(net, &ds.test_images, &ds.test_labels, 64)?;
        ft.run(net, &ds.train_images, &ds.train_labels, rng)?;
        let finetuned_accuracy = train::evaluate(net, &ds.test_images, &ds.test_labels, 64)?;
        let cost = analyze(net, ds.channels(), ds.image_size())?;
        let trace = LayerTrace {
            conv_node,
            conv_ordinal: ordinal,
            maps_before,
            maps_after: keep.len(),
            params_after: cost.total_params,
            flops_after: cost.total_flops,
            inception_accuracy,
            finetuned_accuracy,
        };
        on_unit(net, rng, trace, keep)?;
    }
    Ok(train::evaluate(net, &ds.test_images, &ds.test_labels, 64)?)
}
