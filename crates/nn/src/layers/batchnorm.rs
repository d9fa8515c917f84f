use crate::{Layer, Mode, NnError, Param, ParamKind, ParamPrecision};
use apt_tensor::{ops::reduce, Tensor};

/// Numerical floor added to the variance before the square root.
const BN_EPS: f32 = 1e-5;

/// Batch normalisation over the channel axis of an NCHW tensor (Ioffe &
/// Szegedy; the paper trains all backbones "with BN and no dropout", §IV).
///
/// Learnable γ/β follow the configured precision (fp32 under the paper's
/// scheme); running mean/variance are non-learnable fp32 buffers used in
/// [`Mode::Eval`].
#[derive(Debug)]
pub struct BatchNorm2d {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    xhat: Tensor,
    inv_std: Tensor,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer (γ = 1, β = 0, running stats = (0, 1)).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero channels.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        precision: ParamPrecision,
    ) -> crate::Result<Self> {
        let name = name.into();
        if channels == 0 {
            return Err(NnError::BadConfig {
                reason: format!("bn `{name}`: zero channels"),
            });
        }
        let gamma = Param::new(
            format!("{name}.gamma"),
            ParamKind::BnGamma,
            Tensor::ones(&[channels]),
            precision,
        )?;
        let beta = Param::new(
            format!("{name}.beta"),
            ParamKind::BnBeta,
            Tensor::zeros(&[channels]),
            precision,
        )?;
        Ok(BatchNorm2d {
            name,
            gamma,
            beta,
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            channels,
            cache: None,
        })
    }

    /// Running mean buffer (inference statistics).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance buffer (inference statistics).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    fn check_input(&self, input: &Tensor) -> crate::Result<()> {
        if input.rank() != 4 || input.dims()[1] != self.channels {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "expected [n, {}, h, w], got {:?}",
                    self.channels,
                    input.dims()
                ),
            });
        }
        Ok(())
    }

    fn normalize(&self, input: &Tensor, mean: &Tensor, var: &Tensor) -> (Tensor, Tensor) {
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let mut xhat = Tensor::zeros(input.dims());
        let mut inv_std = Tensor::zeros(&[c]);
        for ch in 0..c {
            inv_std.data_mut()[ch] = 1.0 / (var.data()[ch] + BN_EPS).sqrt();
        }
        let xd = input.data();
        let xh = xhat.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let (mu, is) = (mean.data()[ch], inv_std.data()[ch]);
                let base = (img * c + ch) * h * w;
                for (o, &x) in xh[base..base + h * w]
                    .iter_mut()
                    .zip(&xd[base..base + h * w])
                {
                    *o = (x - mu) * is;
                }
            }
        }
        (xhat, inv_std)
    }

    fn affine(&self, xhat: &Tensor) -> Tensor {
        let (n, c, h, w) = (
            xhat.dims()[0],
            xhat.dims()[1],
            xhat.dims()[2],
            xhat.dims()[3],
        );
        let gamma = self.gamma.value();
        let beta = self.beta.value();
        let mut y = Tensor::zeros(xhat.dims());
        let yd = y.data_mut();
        let xd = xhat.data();
        for img in 0..n {
            for ch in 0..c {
                let (g, b) = (gamma.data()[ch], beta.data()[ch]);
                let base = (img * c + ch) * h * w;
                for (o, &x) in yd[base..base + h * w]
                    .iter_mut()
                    .zip(&xd[base..base + h * w])
                {
                    *o = g * x + b;
                }
            }
        }
        y
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        self.check_input(input)?;
        if mode == Mode::Eval {
            let (xhat, _) = self.normalize(input, &self.running_mean, &self.running_var);
            return Ok(self.affine(&xhat));
        }
        let (mean, var) = reduce::channel_mean_var(input)?;
        // running = (1−m)·running + m·batch
        for ch in 0..self.channels {
            let rm = &mut self.running_mean.data_mut()[ch];
            *rm = (1.0 - self.momentum) * *rm + self.momentum * mean.data()[ch];
            let rv = &mut self.running_var.data_mut()[ch];
            *rv = (1.0 - self.momentum) * *rv + self.momentum * var.data()[ch];
        }
        let (xhat, inv_std) = self.normalize(input, &mean, &var);
        let y = self.affine(&xhat);
        self.cache = Some(BnCache {
            xhat,
            inv_std,
            dims: input.dims().to_vec(),
        });
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        if grad_output.dims() != cache.dims.as_slice() {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "grad_output {:?} != forward shape {:?}",
                    grad_output.dims(),
                    cache.dims
                ),
            });
        }
        let (n, c, h, w) = (cache.dims[0], cache.dims[1], cache.dims[2], cache.dims[3]);
        let m = (n * h * w) as f32;
        let gamma = self.gamma.value();
        let go = grad_output.data();
        let xh = cache.xhat.data();

        // Per-channel reductions: Σdy and Σ(dy·x̂)
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for k in base..base + h * w {
                    sum_dy[ch] += go[k] as f64;
                    sum_dy_xhat[ch] += (go[k] * xh[k]) as f64;
                }
            }
        }
        // dγ = Σ(dy·x̂), dβ = Σdy
        let dgamma = Tensor::from_vec(sum_dy_xhat.iter().map(|&v| v as f32).collect(), &[c])?;
        let dbeta = Tensor::from_vec(sum_dy.iter().map(|&v| v as f32).collect(), &[c])?;
        self.gamma.accumulate_grad(&dgamma)?;
        self.beta.accumulate_grad(&dbeta)?;

        // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = Tensor::zeros(&cache.dims);
        let dxd = dx.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let scale = gamma.data()[ch] * cache.inv_std.data()[ch] / m;
                let (sd, sdx) = (sum_dy[ch] as f32, sum_dy_xhat[ch] as f32);
                let base = (img * c + ch) * h * w;
                for k in base..base + h * w {
                    dxd[k] = scale * (m * go[k] - sd - xh[k] * sdx);
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        let mean_name = format!("{}.running_mean", self.name);
        f(&mean_name, &mut self.running_mean);
        let var_name = format!("{}.running_var", self.name);
        f(&var_name, &mut self.running_var);
    }

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        let gamma = self.gamma.value();
        let beta = self.beta.value();
        builder.push_bn(
            gamma.data(),
            beta.data(),
            self.running_mean.data(),
            self.running_var.data(),
            BN_EPS,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn train_output_is_normalised() {
        let mut bn = BatchNorm2d::new("bn", 3, ParamPrecision::Float32).unwrap();
        let x = normal(&[4, 3, 5, 5], 2.0, &mut seeded(1)).map(|v| v + 3.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        let (mean, var) = reduce::channel_mean_var(&y).unwrap();
        for ch in 0..3 {
            assert!(mean.data()[ch].abs() < 1e-4, "mean={}", mean.data()[ch]);
            assert!(
                (var.data()[ch] - 1.0).abs() < 1e-2,
                "var={}",
                var.data()[ch]
            );
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new("bn", 2, ParamPrecision::Float32).unwrap();
        let x = normal(&[8, 2, 4, 4], 1.0, &mut seeded(2)).map(|v| v + 5.0);
        // Train several times so running stats converge toward batch stats.
        for _ in 0..50 {
            let _ = bn.forward(&x, Mode::Train).unwrap();
        }
        let y_eval = bn.forward(&x, Mode::Eval).unwrap();
        let (mean, _) = reduce::channel_mean_var(&y_eval).unwrap();
        for ch in 0..2 {
            assert!(mean.data()[ch].abs() < 0.1, "eval mean={}", mean.data()[ch]);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut bn = BatchNorm2d::new("bn", 2, ParamPrecision::Float32).unwrap();
        let x = normal(&[2, 2, 3, 3], 1.0, &mut seeded(3));
        let go = normal(&[2, 2, 3, 3], 1.0, &mut seeded(4));
        let _ = bn.forward(&x, Mode::Train).unwrap();
        let dx = bn.backward(&go).unwrap();

        let eps = 1e-2;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, Mode::Train).unwrap();
            y.data().iter().zip(go.data()).map(|(a, b)| a * b).sum()
        };
        for k in [0usize, 9, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let fd = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[k]).abs() < 3e-2,
                "k={k} fd={fd} an={}",
                dx.data()[k]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut bn = BatchNorm2d::new("bn", 1, ParamPrecision::Float32).unwrap();
        let x = normal(&[2, 1, 2, 2], 1.0, &mut seeded(5));
        let _ = bn.forward(&x, Mode::Train).unwrap();
        let go = Tensor::ones(&[2, 1, 2, 2]);
        let _ = bn.backward(&go).unwrap();
        bn.visit_params_ref(&mut |p| match p.kind() {
            // dβ = Σ dy = 8; dγ = Σ x̂ ≈ 0 (normalised)
            ParamKind::BnBeta => assert!((p.grad().data()[0] - 8.0).abs() < 1e-4),
            ParamKind::BnGamma => assert!(p.grad().data()[0].abs() < 1e-3),
            _ => {}
        });
    }

    #[test]
    fn misuse_errors() {
        assert!(BatchNorm2d::new("z", 0, ParamPrecision::Float32).is_err());
        let mut bn = BatchNorm2d::new("bn", 2, ParamPrecision::Float32).unwrap();
        assert!(bn
            .forward(&Tensor::zeros(&[1, 3, 2, 2]), Mode::Train)
            .is_err());
        assert!(bn.backward(&Tensor::zeros(&[1, 2, 2, 2])).is_err());
        let _ = bn
            .forward(&Tensor::zeros(&[1, 2, 2, 2]), Mode::Train)
            .unwrap();
        assert!(bn.backward(&Tensor::zeros(&[1, 2, 3, 3])).is_err());
    }
}
