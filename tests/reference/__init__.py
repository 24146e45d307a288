"""Independent references the tests compare the production kernel against."""
