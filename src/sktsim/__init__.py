"""Simulator and verification harness for two-species SKT cross-diffusion systems."""
