use crate::{Layer, Mode, NnError, Param};
use apt_tensor::Tensor;

/// Rectified linear unit: `y = max(x, 0)`.
#[derive(Debug)]
pub struct Relu {
    name: String,
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Relu {
            name: name.into(),
            cached_input: None,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        let y = input.map(|x| x.max(0.0));
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        Ok(input.zip(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_relu();
        Ok(())
    }
}

/// ReLU6 (`y = min(max(x, 0), 6)`) — MobileNetV2's activation (Sandler et
/// al. \[17\]).
#[derive(Debug)]
pub struct Relu6 {
    name: String,
    cached_input: Option<Tensor>,
}

impl Relu6 {
    /// Creates a ReLU6 layer.
    pub fn new(name: impl Into<String>) -> Self {
        Relu6 {
            name: name.into(),
            cached_input: None,
        }
    }
}

impl Layer for Relu6 {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        let y = input.map(|x| x.clamp(0.0, 6.0));
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        Ok(input.zip(grad_output, |x, g| if x > 0.0 && x < 6.0 { g } else { 0.0 })?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_relu6();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new("r");
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = r.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = Tensor::from_slice(&[5.0, 5.0, 5.0]);
        let dx = r.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn relu6_saturates_both_ends() {
        let mut r = Relu6::new("r6");
        let x = Tensor::from_slice(&[-1.0, 3.0, 7.0]);
        let y = r.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 3.0, 6.0]);
        let g = Tensor::from_slice(&[1.0, 1.0, 1.0]);
        let dx = r.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut r = Relu::new("r");
        assert!(r.backward(&Tensor::zeros(&[1])).is_err());
        let mut r6 = Relu6::new("r6");
        assert!(r6.backward(&Tensor::zeros(&[1])).is_err());
        // Eval mode does not cache.
        let _ = r.forward(&Tensor::zeros(&[1]), Mode::Eval).unwrap();
        assert!(r.backward(&Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        let mut count = 0;
        Relu::new("r").visit_params_ref(&mut |_| count += 1);
        Relu6::new("r6").visit_params_ref(&mut |_| count += 1);
        assert_eq!(count, 0);
    }
}
